#!/usr/bin/env python3
"""Quickstart: a buffer pool larger than DRAM, thanks to CXL.

Builds three engines for a working set that exceeds local DRAM:

1. DRAM only, paging to NVMe (yesterday's answer);
2. DRAM + a CXL memory expander, OS-style paging placement;
3. DRAM + CXL with the engine's own cost-based placement (the paper's
   position: the database knows page utility better than the OS).

Run:  python examples/quickstart.py
      python examples/quickstart.py --trace-out quickstart.trace.json
      # then load the file in chrome://tracing (or ui.perfetto.dev)

With ``--trace-out``, every engine records its virtual-time spans
(runs, page faults, migrations) into one Chrome trace-event file —
see docs/observability.md.
"""

import argparse

from repro.core import DbCostPolicy, OSPagingPolicy, ScaleUpEngine
from repro.sim import set_ambient, sink_for_path
from repro.workloads import YCSBConfig, ycsb_blocks

# A 4 GB working set against 1 GB of local DRAM (in 4 KiB pages).
TOTAL_PAGES = 10_000
DRAM_PAGES = 2_500


def run(name: str, engine: ScaleUpEngine) -> None:
    config = YCSBConfig(mix="B", num_pages=TOTAL_PAGES, num_ops=40_000,
                        theta=0.99, think_ns=100.0, seed=7)
    engine.warm_with(ycsb_blocks(config))     # steady state
    report = engine.run(ycsb_blocks(config), label=name)
    print(f"  {name:<22} {report.total_ns / 1e6:8.2f} ms   "
          f"mean access {report.mean_latency_ns:6.0f} ns   "
          f"DRAM hits {report.tier_hit_rates[0]:.0%}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace-out", metavar="PATH",
                        help="record a chrome://tracing file of the run")
    args = parser.parse_args()

    sink = sink_for_path(args.trace_out) if args.trace_out else None
    previous = set_ambient(trace=sink)

    print("Working set of", TOTAL_PAGES, "pages;", DRAM_PAGES,
          "fit in local DRAM.\n")

    try:
        run("NVMe paging", ScaleUpEngine.build(dram_pages=DRAM_PAGES))
        run("CXL + OS paging", ScaleUpEngine.build(
            dram_pages=DRAM_PAGES, cxl_pages=TOTAL_PAGES + 16,
            placement=OSPagingPolicy(),
        ))
        run("CXL + DB placement", ScaleUpEngine.build(
            dram_pages=DRAM_PAGES, cxl_pages=TOTAL_PAGES + 16,
            placement=DbCostPolicy(),
        ))
    finally:
        set_ambient(*previous)
        if sink is not None:
            sink.close()
            print(f"\n[trace written to {args.trace_out} —"
                  " open it in chrome://tracing]")

    print("\nCXL memory expansion absorbs the overflow at memory"
          " latency instead of storage latency (Fig 2a of the paper),"
          "\nand engine-driven placement keeps the hot set in DRAM.")


if __name__ == "__main__":
    main()
