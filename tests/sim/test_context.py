"""SimContext: the one-clock invariant, spans, ambient wiring."""

import pytest

from repro.core.buffer import TieredBufferPool
from repro.core.engine import ScaleUpEngine
from repro.errors import BufferPoolError, SimulationError
from repro.metrics.registry import MetricsRegistry
from repro.sim.clock import SimClock
from repro.sim.context import (
    SimContext,
    ambient_instrumentation,
    set_ambient,
)
from repro.sim.events import Simulator
from repro.sim.trace import NULL_SINK, MemoryTraceSink


class TestDefaults:
    def test_fresh_context(self):
        ctx = SimContext()
        assert ctx.now == 0.0
        assert ctx.trace is NULL_SINK
        assert isinstance(ctx.metrics, MetricsRegistry)

    def test_slots(self):
        with pytest.raises(AttributeError):
            SimContext().extra = 1


class TestClockInvariant:
    def test_bind_own_clock_ok(self):
        ctx = SimContext()
        assert ctx.bind_clock(ctx.clock, owner="pool") is ctx.clock
        assert ctx.clock_owners == ("pool",)

    def test_second_clock_rejected(self):
        ctx = SimContext()
        ctx.bind_clock(ctx.clock, owner="pool")
        with pytest.raises(SimulationError, match="exactly one clock"):
            ctx.bind_clock(SimClock(), owner="rogue")

    def test_pool_rejects_mismatched_clock_and_context(self):
        ctx = SimContext()
        engine = ScaleUpEngine.build(dram_pages=4, with_storage=False,
                                     ctx=ctx)
        with pytest.raises(BufferPoolError, match="exactly one clock"):
            TieredBufferPool(tiers=list(engine.pool.tiers),
                             clock=SimClock(), ctx=ctx)

    def test_engine_run_binds_single_clock(self):
        ctx = SimContext()
        engine = ScaleUpEngine.build(dram_pages=8, with_storage=False,
                                     ctx=ctx)
        assert engine.pool.clock is ctx.clock
        assert "buffer-pool" in ctx.clock_owners
        assert any(o.startswith("engine:") for o in ctx.clock_owners)

    def test_simulator_adopts_context_clock(self):
        ctx = SimContext()
        sim = Simulator(ctx=ctx)
        assert sim.clock is ctx.clock
        assert "simulator" in ctx.clock_owners


class TestSpans:
    def test_span_records_virtual_time(self):
        sink = MemoryTraceSink()
        ctx = SimContext(trace=sink)
        ctx.clock.advance(100.0)
        with ctx.span("work", cat="test", args={"k": 1}):
            ctx.clock.advance(250.0)
        (span,) = sink.spans
        assert span.start_ns == 100.0
        assert span.end_ns == 350.0
        assert span.args == {"k": 1}

    def test_disabled_span_is_shared_noop(self):
        ctx = SimContext()
        assert ctx.span("a") is ctx.span("b")

    def test_event(self):
        sink = MemoryTraceSink()
        ctx = SimContext(trace=sink)
        ctx.clock.advance(42.0)
        ctx.event("boom", cat="ras")
        assert sink.instants == [("boom", "ras", 42.0, None)]

    def test_event_disabled_noop(self):
        SimContext().event("boom")  # must not raise


class TestAmbient:
    def test_ambient_picks_up_installed_pair(self):
        sink = MemoryTraceSink()
        metrics = MetricsRegistry()
        previous = set_ambient(trace=sink, metrics=metrics)
        try:
            ctx = SimContext.ambient()
            assert ctx.trace is sink
            assert ctx.metrics is metrics
            assert ambient_instrumentation() == (sink, metrics)
        finally:
            set_ambient(*previous)

    def test_ambient_defaults_without_install(self):
        previous = set_ambient(None, None)
        try:
            ctx = SimContext.ambient()
            assert ctx.trace is NULL_SINK
            assert isinstance(ctx.metrics, MetricsRegistry)
        finally:
            set_ambient(*previous)

    def test_ambient_contexts_get_fresh_clocks(self):
        # Sharing a sink must NOT share a clock: engines stay
        # independently timed so traced runs match untraced ones.
        sink = MemoryTraceSink()
        previous = set_ambient(trace=sink)
        try:
            a = SimContext.ambient()
            b = SimContext.ambient()
            assert a.clock is not b.clock
        finally:
            set_ambient(*previous)


class TestEngineIntegration:
    def test_traced_run_emits_spans_and_metrics(self):
        sink = MemoryTraceSink()
        ctx = SimContext(trace=sink)
        engine = ScaleUpEngine.build(dram_pages=4, cxl_pages=16,
                                     with_storage=False, ctx=ctx)
        from repro.workloads.ycsb import YCSBConfig, ycsb_blocks
        cfg = YCSBConfig(num_pages=30, num_ops=200, seed=7)
        report = engine.run(ycsb_blocks(cfg))
        names = {span.name for span in sink.spans}
        assert any(name.startswith("run:") for name in names)
        assert any(name == "pool.fault" for name in names)
        # Spans are monotone in virtual time and within the run.
        for span in sink.spans:
            assert span.end_ns >= span.start_ns
        assert report.metrics["engine"]["ops"] == 200
        assert "pool" in report.metrics
        assert "device" in report.metrics
