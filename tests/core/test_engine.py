"""The ScaleUpEngine facade and its reports."""

import numpy as np
import pytest

from repro import config
from repro.core.engine import EngineReport, ScaleUpEngine
from repro.core.placement import StaticPolicy
from repro.errors import ConfigError
from repro.units import CACHE_LINE
from repro.workloads import AccessBlock, YCSBConfig, ycsb_blocks


def points(page_ids, think_ns=0.0):
    """Cache-line reads of *page_ids*, as a one-block trace."""
    n = len(page_ids)
    return [AccessBlock.from_columns(
        page_ids, np.zeros(n, bool), np.zeros(n, bool),
        np.full(n, CACHE_LINE), np.full(n, think_ns))]


class TestBuild:
    def test_dram_only(self):
        engine = ScaleUpEngine.build(dram_pages=100, with_storage=False)
        assert len(engine.pool.tiers) == 1

    def test_dram_plus_cxl(self):
        engine = ScaleUpEngine.build(dram_pages=100, cxl_pages=400,
                                     with_storage=False)
        assert [t.name for t in engine.pool.tiers] == ["dram", "cxl"]

    def test_switch_adds_latency(self):
        direct = ScaleUpEngine.build(dram_pages=1, cxl_pages=10,
                                     with_storage=False)
        switched = ScaleUpEngine.build(dram_pages=1, cxl_pages=10,
                                       through_switch=True,
                                       with_storage=False)
        assert (switched.pool.tiers[1].path.read_latency_ns()
                > direct.pool.tiers[1].path.read_latency_ns())

    def test_storage_backing_by_default(self):
        engine = ScaleUpEngine.build(dram_pages=10)
        assert engine.pool.backing is not None

    def test_zero_dram_rejected(self):
        with pytest.raises(ConfigError):
            ScaleUpEngine.build(dram_pages=0)

    def test_custom_cxl_spec(self):
        engine = ScaleUpEngine.build(
            dram_pages=10, cxl_pages=10,
            cxl_spec=config.cxl_expander_hbm(), with_storage=False,
        )
        assert engine.pool.tiers[1].path.device.kind is \
            config.MemoryKind.CXL_HBM


class TestRun:
    def test_report_counts_ops(self):
        engine = ScaleUpEngine.build(dram_pages=100, with_storage=False)
        trace = points([i % 10 for i in range(100)])
        report = engine.run(trace)
        assert report.ops == 100
        assert report.total_ns > 0
        assert report.misses == 10

    def test_think_time_included_in_total(self):
        engine = ScaleUpEngine.build(dram_pages=10, with_storage=False)
        trace = points([0] * 10, think_ns=1_000.0)
        report = engine.run(trace)
        assert report.think_ns == pytest.approx(10_000.0)
        assert report.total_ns >= report.think_ns

    def test_hit_rate(self):
        engine = ScaleUpEngine.build(dram_pages=10, with_storage=False)
        trace = points([0] * 9 + [1])
        report = engine.run(trace)
        assert report.hit_rate == pytest.approx(0.8)

    def test_throughput_positive(self):
        engine = ScaleUpEngine.build(dram_pages=10, with_storage=False)
        report = engine.run(points([0] * 10))
        assert report.throughput_ops_per_s > 0

    def test_mean_latency(self):
        engine = ScaleUpEngine.build(dram_pages=10, with_storage=False)
        report = engine.run(points([0] * 10))
        assert report.mean_latency_ns == pytest.approx(
            report.demand_ns / 10
        )

    def test_sequential_runs_accumulate_independent_reports(self):
        engine = ScaleUpEngine.build(dram_pages=10, with_storage=False)
        r1 = engine.run(points([0] * 5))
        r2 = engine.run(points([0] * 5))
        assert r1.ops == r2.ops == 5
        assert r2.misses == 0  # warm now

    def test_slowdown_vs(self):
        engine = ScaleUpEngine.build(dram_pages=10, with_storage=False)
        base = engine.run(points([0] * 10))
        slow = EngineReport(name="x", ops=10, total_ns=base.total_ns * 2)
        assert slow.slowdown_vs(base) == pytest.approx(2.0)
        with pytest.raises(ConfigError):
            base.slowdown_vs(EngineReport(name="zero"))

    def test_warm_with_populates(self):
        engine = ScaleUpEngine.build(dram_pages=100, with_storage=False)
        engine.warm_with(iter(points(range(50))))
        report = engine.run(points(range(50)))
        assert report.misses == 0

    def test_empty_trace(self):
        engine = ScaleUpEngine.build(dram_pages=10, with_storage=False)
        report = engine.run([])
        assert report.ops == 0
        assert report.mean_latency_ns == 0.0
        assert report.throughput_ops_per_s == 0.0

    def test_report_str_is_informative(self):
        engine = ScaleUpEngine.build(dram_pages=10, with_storage=False,
                                     name="mine")
        report = engine.run(points([0] * 3))
        text = str(report)
        assert "mine" in text
        assert "ops=3" in text


class TestCXLLatencySensitivity:
    def test_all_cxl_slower_than_all_dram(self):
        cfg = YCSBConfig(mix="C", num_pages=200, num_ops=2_000,
                         think_ns=0)
        dram = ScaleUpEngine.build(dram_pages=300, with_storage=False)
        cxl = ScaleUpEngine.build(
            dram_pages=1, cxl_pages=300,
            placement=StaticPolicy(lambda _p: 1), with_storage=False,
        )
        r_dram = dram.run(ycsb_blocks(cfg))
        r_cxl = cxl.run(ycsb_blocks(cfg))
        slowdown = r_cxl.slowdown_vs(r_dram)
        # Point lookups: CXL latency ratio ~2.4x.
        assert 1.5 < slowdown < 3.5

    def test_compute_bound_workload_barely_slows(self):
        cfg = YCSBConfig(mix="C", num_pages=200, num_ops=1_000,
                         think_ns=10_000.0)
        dram = ScaleUpEngine.build(dram_pages=300, with_storage=False)
        cxl = ScaleUpEngine.build(
            dram_pages=1, cxl_pages=300,
            placement=StaticPolicy(lambda _p: 1), with_storage=False,
        )
        r_dram = dram.run(ycsb_blocks(cfg))
        r_cxl = cxl.run(ycsb_blocks(cfg))
        assert r_cxl.slowdown_vs(r_dram) < 1.05  # Pond's <5% class
