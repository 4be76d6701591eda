"""E3 — Pond's workload population under CXL latency (Sec 2.4, [31]).

Paper values reproduced:
* of 158 cloud workloads run entirely from CXL-latency memory, ~26%
  slow down by less than 1% and another ~17% by less than 5%;
* TPC-H overheads are highly query-dependent, mostly below ~20-25%
  under a partial-CXL (Pond-like) placement.
"""

from repro.core import ScaleUpEngine, StaticPolicy
from repro.metrics.report import Table
from repro.query import tpch
from repro.storage.disk import StorageDevice
from repro.storage.file import PageFile
from repro.workloads.cloudmix import generate_population


def _engine(pages, cxl_only):
    if cxl_only:
        return ScaleUpEngine.build(
            dram_pages=1, cxl_pages=pages,
            placement=StaticPolicy(lambda _p: 1), with_storage=False,
        )
    return ScaleUpEngine.build(dram_pages=pages, with_storage=False)


def run_population(count=158, num_ops=1_500):
    """Run every workload all-DRAM and all-CXL; return slowdowns."""
    slowdowns = []
    for workload in generate_population(count=count, num_ops=num_ops):
        pages = workload.working_set_pages + 8
        dram = _engine(pages, cxl_only=False).run(workload.trace_blocks())
        cxl = _engine(pages, cxl_only=True).run(workload.trace_blocks())
        slowdowns.append(cxl.total_ns / dram.total_ns - 1.0)
    return slowdowns


def run_tpch(lineitem_rows=12_000, cxl_fraction=0.4):
    """TPC-H overhead with a Pond-like placement: a fixed fraction of
    pages interleaved onto CXL (Pond stripes memory in hardware, the
    engine does not get to choose)."""
    cxl_pct = int(cxl_fraction * 100)

    def striped(page_id: int) -> int:
        return 1 if (page_id * 2_654_435_761) % 100 < cxl_pct else 0

    overheads = {}
    for name, query in tpch.QUERIES.items():
        results = {}
        for mode in ("dram", "mixed"):
            pf = PageFile(StorageDevice())
            data = tpch.generate(pf, lineitem_rows=lineitem_rows)
            pages = data.total_pages + 8
            if mode == "dram":
                engine = ScaleUpEngine.build(dram_pages=pages,
                                             backing=pf)
            else:
                engine = ScaleUpEngine.build(
                    dram_pages=pages, cxl_pages=pages, backing=pf,
                    placement=StaticPolicy(striped),
                )
            query(engine, data)  # warm
            start = engine.pool.clock.now
            query(engine, data)
            results[mode] = engine.pool.clock.now - start
        overheads[name] = results["mixed"] / results["dram"] - 1.0
    return overheads


def run_experiment(show=False):
    slowdowns = run_population()
    n = len(slowdowns)
    under_1 = sum(1 for s in slowdowns if s < 0.01) / n
    under_5 = sum(1 for s in slowdowns if 0.01 <= s < 0.05) / n
    over_25 = sum(1 for s in slowdowns if s >= 0.25) / n

    overheads = run_tpch()

    table = Table("E3: Pond population + TPC-H (Sec 2.4)", [
        "metric", "paper", "measured",
    ])
    table.add_row("population size", "158", f"{n}")
    table.add_row("<1% slowdown", "~26%", f"{under_1:.0%}")
    table.add_row("1-5% slowdown", "+~17%", f"{under_5:.0%}")
    table.add_row(">=25% slowdown", "(tail exists)", f"{over_25:.0%}")
    for name in sorted(overheads):
        table.add_row(f"TPC-H {name} overhead",
                      "query-dependent, mostly <20%",
                      f"{overheads[name]:+.1%}")
    if show:
        table.show()
    return under_1, under_5, overheads


def test_e3_pond_population(benchmark):
    benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    under_1, under_5, overheads = run_experiment(show=True)
    assert abs(under_1 - 0.26) < 0.08
    assert abs(under_5 - 0.17) < 0.08
    below_20 = sum(1 for o in overheads.values() if o < 0.20)
    assert below_20 >= len(overheads) / 2  # "mostly below 20%"
