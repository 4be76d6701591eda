"""A9 — designed memory tiers (Sec 3.1's "killer app" paragraph).

"The memory tiers can be carefully designed ... slower/cheaper or
faster/more expensive memory than the CPU at the system architect's
discretion, even enabling the recycling of DRAM from older
generations."

The same engine runs a point-lookup (OLTP-ish) and a scan (OLAP-ish)
workload with its overflow tier built three ways — new DDR5, recycled
DDR4, HBM — and the table reports performance *and* performance per
dollar under representative $/GB figures. Two findings:

* recycled DDR4 costs a few percent of runtime and is the clear
  perf-per-dollar winner — the paper's recycling/cost argument;
* HBM behind a Gen5 x16 port is *port-bound*: 6x the $/GB buys ~1%
  on scans, quantifying why expander bandwidth "highly depends on the
  expander's characteristics" (Sec 2.4) — the port, not the media,
  can be the ceiling.
"""

from repro import config
from repro.core import ScaleUpEngine, StaticPolicy
from repro.metrics.report import Table
from repro.units import GIB
from repro.workloads import YCSBConfig, scan_blocks, ycsb_blocks

#: Representative street prices, $/GiB.
DOLLARS_PER_GIB = {
    "ddr5-expander": 4.0,
    "ddr4-recycled": 1.5,
    "hbm-expander": 25.0,
}

EXPANDERS = {
    "ddr5-expander": config.cxl_expander_ddr5,
    "ddr4-recycled": config.cxl_expander_ddr4_recycled,
    "hbm-expander": config.cxl_expander_hbm,
}

PAGES = 4_000


def _point_trace(seed=3):
    return ycsb_blocks(YCSBConfig(
        mix="B", num_pages=PAGES, num_ops=20_000, theta=0.99,
        think_ns=0, seed=seed,
    ))


def _scan_workload():
    return scan_blocks(first_page=0, num_pages=PAGES, repeats=4,
                      think_ns=0)


def run_experiment(show=False):
    results = {}
    for name, spec_factory in EXPANDERS.items():
        spec = spec_factory()
        point_engine = ScaleUpEngine.build(
            dram_pages=400, cxl_pages=PAGES + 8, cxl_spec=spec,
            with_storage=False,
        )
        point_engine.warm_with(_point_trace())
        point = point_engine.run(_point_trace(), label=name)

        scan_engine = ScaleUpEngine.build(
            dram_pages=400, cxl_pages=PAGES + 8, cxl_spec=spec,
            placement=StaticPolicy(lambda _p: 1), with_storage=False,
        )
        scan_engine.warm_with(_scan_workload())
        scan = scan_engine.run(_scan_workload(), label=name)
        results[name] = (point, scan)

    table = Table("A9: expander memory diversity (Sec 3.1)", [
        "expander", "$/GiB", "point runtime", "scan runtime",
        "point ops/s/$ (64GiB)", "scan MB/s/$ (64GiB)",
    ])
    efficiency = {}
    for name, (point, scan) in results.items():
        cost = DOLLARS_PER_GIB[name] * 64
        point_eff = point.throughput_ops_per_s / cost
        scan_bytes = PAGES * 4 * 4096
        scan_eff = (scan_bytes / scan.total_ns * 1e3) / cost
        efficiency[name] = (point_eff, scan_eff)
        table.add_row(
            name, f"${DOLLARS_PER_GIB[name]:.2f}",
            f"{point.total_ns / 1e6:.2f} ms",
            f"{scan.total_ns / 1e6:.2f} ms",
            f"{point_eff:,.0f}",
            f"{scan_eff:,.1f}",
        )
    if show:
        table.show()
    return results, efficiency


def test_a9_memory_diversity(benchmark):
    benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    results, efficiency = run_experiment(show=True)
    # HBM is the fastest scanner in absolute terms.
    scan_times = {name: scan.total_ns
                  for name, (_p, scan) in results.items()}
    assert scan_times["hbm-expander"] <= scan_times["ddr5-expander"]
    # Recycled DDR4 wins point-lookup efficiency (the recycling claim).
    point_eff = {name: eff[0] for name, eff in efficiency.items()}
    assert point_eff["ddr4-recycled"] > point_eff["ddr5-expander"]
    assert point_eff["ddr4-recycled"] > point_eff["hbm-expander"]
