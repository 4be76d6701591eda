"""E5 — Memory expansion policies, Fig 2(a) (paper Sec 3.1).

Shapes reproduced:
* as the DRAM share of the working set shrinks, paging to SSD
  degrades far faster than tiering to CXL memory;
* the database engine's cost-based placement beats OS-style paging at
  every DRAM share (ref [11]: the engine knows page utility);
* HTAP isolation: static OLTP-local / OLAP-CXL placement keeps OLTP
  latency flat while an analytical scan storm runs (the "killer app"
  configuration of Sec 3.1).
"""

from repro.core import (
    DbCostPolicy,
    OSPagingPolicy,
    ScaleUpEngine,
    StaticPolicy,
)
from repro.metrics.report import Table
from repro.workloads import YCSBConfig, mixed_htap_blocks, ycsb_blocks

PAGES = 3_000


def _cfg(seed, ops=20_000):
    return YCSBConfig(mix="B", num_pages=PAGES, num_ops=ops,
                      theta=0.99, think_ns=100.0, seed=seed)


def run_dram_share_sweep():
    rows = []
    for share in (0.10, 0.25, 0.50, 1.00):
        dram_pages = max(1, int(PAGES * share))
        runtimes = {}
        for name, build in (
            ("ssd", lambda: ScaleUpEngine.build(dram_pages=dram_pages)),
            ("os", lambda: ScaleUpEngine.build(
                dram_pages=dram_pages, cxl_pages=PAGES + 8,
                placement=OSPagingPolicy(sample_rate=0.05,
                                         check_interval=1_000))),
            ("db", lambda: ScaleUpEngine.build(
                dram_pages=dram_pages, cxl_pages=PAGES + 8,
                placement=DbCostPolicy(rebalance_interval=2_000))),
        ):
            engine = build()
            # Steady state: warm with the measured trace itself.
            engine.warm_with(ycsb_blocks(_cfg(2)))
            runtimes[name] = engine.run(ycsb_blocks(_cfg(2))).total_ns
        rows.append((share, runtimes))
    return rows


def run_htap_isolation():
    """OLTP mean latency with and without placement isolation."""
    oltp_pages = 800

    def run(placement):
        engine = ScaleUpEngine.build(
            dram_pages=1_000, cxl_pages=8_000,
            placement=placement, with_storage=False,
        )
        trace = mixed_htap_blocks(
            oltp_pages=oltp_pages, olap_pages=6_000,
            oltp_ops=15_000, olap_repeats=1, seed=9,
        )
        report = engine.run(trace)
        oltp_in_dram = sum(
            1 for p in engine.pool.resident_in(0) if p < oltp_pages
        )
        return report, oltp_in_dram

    isolated, iso_dram = run(
        StaticPolicy(lambda p: 0 if p < oltp_pages else 1))
    shared, shr_dram = run(OSPagingPolicy(check_interval=10**9))
    return (isolated, iso_dram), (shared, shr_dram)


def run_experiment(show=False):
    sweep = run_dram_share_sweep()
    table = Table("E5: expansion policies vs DRAM share (Fig 2a)", [
        "DRAM share", "SSD paging", "OS tiering", "DB tiering",
        "SSD/DB", "expected",
    ])
    for share, runtimes in sweep:
        table.add_row(
            f"{share:.0%}",
            f"{runtimes['ssd'] / 1e6:.1f} ms",
            f"{runtimes['os'] / 1e6:.1f} ms",
            f"{runtimes['db'] / 1e6:.1f} ms",
            f"{runtimes['ssd'] / runtimes['db']:.1f}x",
            "DB <= OS << SSD" if share < 1 else "parity",
        )

    (isolated, iso_dram), (shared, shr_dram) = run_htap_isolation()
    table2 = Table("E5b: HTAP isolation (OLTP local, OLAP on CXL)", [
        "placement", "OLTP pages in DRAM", "runtime",
    ])
    table2.add_row("static isolation", iso_dram,
                   f"{isolated.total_ns / 1e6:.1f} ms")
    table2.add_row("shared LRU-like", shr_dram,
                   f"{shared.total_ns / 1e6:.1f} ms")
    if show:
        table.show()
        table2.show()
    return sweep, iso_dram, shr_dram


def test_e5_memory_expansion(benchmark):
    benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    sweep, iso_dram, shr_dram = run_experiment(show=True)
    for share, runtimes in sweep:
        if share < 1.0:
            assert runtimes["ssd"] > 1.5 * runtimes["db"]
            assert runtimes["db"] <= 1.1 * runtimes["os"]
        else:
            # Everything fits DRAM: the three configurations converge.
            assert runtimes["ssd"] < 1.3 * runtimes["db"]
    assert iso_dram > shr_dram
