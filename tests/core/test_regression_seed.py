"""Simulated results are byte-identical to the pre-instrumentation seed.

The SimContext spine is observability only: these numbers were captured
from the repository BEFORE the refactor, on fixed Zipf traces, and must
reproduce exactly (``==`` on floats, no tolerance). If a change to the
instrumentation moves any of them, it perturbed the simulation.
"""

from repro.core.engine import ScaleUpEngine
from repro.core.placement import DbCostPolicy
from repro.sim.context import SimContext
from repro.sim.trace import MemoryTraceSink
from repro.workloads.ycsb import YCSBConfig, ycsb_blocks


def _run_config_a(ctx=None):
    cfg = YCSBConfig(mix="A", num_pages=3_000, num_ops=20_000,
                     theta=0.99, think_ns=120.0, seed=1234)
    engine = ScaleUpEngine.build(
        dram_pages=600, cxl_pages=1_500, placement=DbCostPolicy(),
        name="regress", ctx=ctx,
    )
    engine.warm_with(ycsb_blocks(cfg))
    return engine.run(ycsb_blocks(cfg))


class TestSeedRegressionZipfA:
    """YCSB-A, theta=0.99, tiered DRAM+CXL pool with NVMe backing."""

    def test_byte_identical_to_seed(self):
        report = _run_config_a()
        assert report.ops == 20000
        assert report.total_ns == 33137994.27492147
        assert report.demand_ns == 30522609.146624696
        assert report.think_ns == 2400000.0
        assert report.hit_rate == 0.94045
        assert report.tier_hit_rates == [0.750275, 0.1591]
        assert report.migrations == 1699
        assert report.misses == 1191
        assert report.mean_latency_ns == 1526.1304573312348
        assert report.throughput_ops_per_s == 603536.8294796229

    def test_tracing_does_not_perturb_results(self):
        # Same trace with a live sink: identical simulated numbers.
        ctx = SimContext(trace=MemoryTraceSink())
        report = _run_config_a(ctx=ctx)
        assert report.total_ns == 33137994.27492147
        assert report.demand_ns == 30522609.146624696
        assert report.mean_latency_ns == 1526.1304573312348
        assert len(ctx.trace.spans) > 0  # and it actually traced


class TestSeedRegressionZipfB:
    """YCSB-B, theta=0.9, DRAM-only pool."""

    def test_byte_identical_to_seed(self):
        cfg = YCSBConfig(mix="B", num_pages=2_000, num_ops=10_000,
                         theta=0.9, think_ns=0.0, seed=99)
        engine = ScaleUpEngine.build(dram_pages=800, name="regress-dram")
        report = engine.run(ycsb_blocks(cfg))
        assert report.ops == 10000
        assert report.total_ns == 30548489.843326334
        assert report.demand_ns == 30548489.843326334
        assert report.hit_rate == 0.7476
        assert report.tier_hit_rates == [0.7476]
        assert report.migrations == 0
        assert report.misses == 2524
        assert report.mean_latency_ns == 3054.8489843326333
