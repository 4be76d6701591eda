"""Ablations — the design choices DESIGN.md calls out.

A1  scan resistance: what the engine's scan knowledge is worth;
A2  replacement policy choice under Zipf + scan mixes;
A3  the prefetch model: why streaming workloads tolerate CXL;
A4  switch depth: the latency ladder from Fig 2(a) to Fig 2(c).
"""

from repro import config
from repro.core import DbCostPolicy, ScaleUpEngine
from repro.core.buffer import Tier, TieredBufferPool
from repro.core.replacement import make_policy
from repro.core.temperature import ExactTracker
from repro.metrics.report import Table
from repro.sim.interconnect import AccessPath, Link
from repro.sim.memory import MemoryDevice
from repro.units import PAGE_SIZE
from repro.workloads import (
    YCSBConfig,
    interleave,
    scan_blocks,
    ycsb_blocks,
)

OLTP_PAGES = 800


def _htap_trace(seed=3):
    oltp = ycsb_blocks(YCSBConfig(
        mix="B", num_pages=OLTP_PAGES, num_ops=12_000,
        theta=0.99, think_ns=0, seed=seed,
    ))
    olap = scan_blocks(first_page=OLTP_PAGES, num_pages=4_000, repeats=1)
    return interleave(oltp, olap, weights=[3, 1])


def run_a1_scan_resistance():
    """Scan-aware vs scan-blind engine placement."""
    results = {}
    for name, scan_aware in (("scan-aware", True), ("scan-blind", False)):
        policy = DbCostPolicy(
            rebalance_interval=2_000, scan_admit_slow=scan_aware,
            tracker=ExactTracker(scan_weight=0.1 if scan_aware else 1.0))
        engine = ScaleUpEngine.build(
            dram_pages=1_000, cxl_pages=8_000, placement=policy,
            with_storage=False,
        )
        engine.run(_htap_trace())
        results[name] = sum(
            1 for p in engine.pool.resident_in(0) if p < OLTP_PAGES
        )
    return results


def run_a2_replacement():
    """Hit rate by replacement policy, one tier under real eviction
    pressure: Zipfian point traffic polluted by a one-shot scan."""
    from repro.core.placement import StaticPolicy
    results = {}
    for name in ("lru", "clock", "2q", "lruk"):
        dram = Tier(
            name="dram",
            path=AccessPath(device=MemoryDevice(config.local_ddr5())),
            capacity_pages=1_000, policy=make_policy(name),
        )
        pool = TieredBufferPool(
            tiers=[dram], placement=StaticPolicy(lambda _p: 0),
        )
        engine = ScaleUpEngine(pool, name=name)
        engine.warm_with(ycsb_blocks(YCSBConfig(
            mix="C", num_pages=OLTP_PAGES, num_ops=4_000,
            theta=0.99, think_ns=0, seed=8,
        )))
        report = engine.run(_htap_trace())
        results[name] = report.hit_rate
    return results


def run_a3_prefetch():
    """Scan time over CXL with and without latency amortization."""
    engine = ScaleUpEngine.build(dram_pages=1, cxl_pages=4_100,
                                 with_storage=False)
    pool = engine.pool
    for page in range(4_000):
        pool.access(page, is_scan=True)  # populate the CXL tier
    with_prefetch = sum(
        pool.access(page, nbytes=PAGE_SIZE, is_scan=True)
        for page in range(4_000)
    )
    without_prefetch = sum(
        pool.access(page, nbytes=PAGE_SIZE, is_scan=False)
        for page in range(4_000)
    )
    return with_prefetch, without_prefetch


def run_a4_switch_depth():
    """Per-access CXL latency vs fabric depth."""
    rows = []
    for hops, label in ((0, "direct attach (Fig 2a)"),
                        (1, "one switch (Fig 2b)"),
                        (2, "cascaded switches (Fig 2c)")):
        links = tuple(Link(config.cxl_switch_hop()) for _ in range(hops))
        path = AccessPath(
            device=MemoryDevice(config.cxl_expander_ddr5()),
            links=(Link(config.cxl_port()), *links),
        )
        rows.append((label, path.read_latency_ns()))
    return rows


def run_experiment(show=False):
    a1 = run_a1_scan_resistance()
    a2 = run_a2_replacement()
    a3_with, a3_without = run_a3_prefetch()
    a4 = run_a4_switch_depth()

    table = Table("A1: scan knowledge (OLTP pages kept in DRAM)", [
        "engine", "OLTP pages in DRAM", f"of {OLTP_PAGES}",
    ])
    for name, kept in a1.items():
        table.add_row(name, kept, f"{kept / OLTP_PAGES:.0%}")

    table2 = Table("A2: replacement policy under scan pressure", [
        "policy", "fast-tier hit rate",
    ])
    for name, rate in sorted(a2.items(), key=lambda kv: -kv[1]):
        table2.add_row(name, f"{rate:.1%}")

    table3 = Table("A3: prefetch model on 4k-page CXL scan", [
        "model", "scan time", "per page",
    ])
    table3.add_row("prefetched (streaming)", f"{a3_with / 1e6:.2f} ms",
                   f"{a3_with / 4_000:.0f} ns")
    table3.add_row("latency-bound (no prefetch)",
                   f"{a3_without / 1e6:.2f} ms",
                   f"{a3_without / 4_000:.0f} ns")

    table4 = Table("A4: fabric depth ladder", [
        "attachment", "load latency",
    ])
    for label, latency in a4:
        table4.add_row(label, f"{latency:.0f} ns")
    if show:
        table.show()
        table2.show()
        table3.show()
        table4.show()
    return a1, a2, (a3_with, a3_without), a4


def test_a_ablations(benchmark):
    benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    a1, a2, (a3_with, a3_without), a4 = run_experiment(show=True)
    assert a1["scan-aware"] > a1["scan-blind"]
    assert a2["2q"] >= a2["lru"] - 0.02  # 2Q at least matches LRU
    assert a3_without > 1.3 * a3_with
    latencies = [latency for _label, latency in a4]
    assert latencies == sorted(latencies)
    assert latencies[2] - latencies[0] == 140.0  # two switch hops
