#!/usr/bin/env python3
"""HTAP without interference: OLTP on DRAM, OLAP on CXL (Sec 3.1).

The paper's "interesting configuration": place the transactional
working set in local DRAM and the analytical data structures in CXL
memory, so the two workloads stop fighting over the buffer pool.

This script runs a mixed HTAP workload against:
* a unified pool with OS-style replacement (scans evict OLTP pages);
* a statically partitioned pool (OLTP pages can never be evicted by
  the scan flood).

Run:  python examples/htap_isolation.py
"""

from repro.core import OSPagingPolicy, ScaleUpEngine, StaticPolicy
from repro.workloads import mixed_htap_blocks

OLTP_PAGES = 1_000
OLAP_PAGES = 6_000


def build(placement):
    return ScaleUpEngine.build(
        dram_pages=1_200,
        cxl_pages=OLAP_PAGES + OLTP_PAGES + 64,
        placement=placement,
        with_storage=False,
    )


def run(name, engine):
    trace = mixed_htap_blocks(
        oltp_pages=OLTP_PAGES, olap_pages=OLAP_PAGES,
        oltp_ops=25_000, olap_repeats=2, oltp_per_olap=4, seed=17,
    )
    report = engine.run(trace, label=name)
    oltp_in_dram = sum(
        1 for page in engine.pool.resident_in(0) if page < OLTP_PAGES
    )
    print(f"  {name:<22} runtime {report.total_ns / 1e6:7.2f} ms   "
          f"OLTP pages still in DRAM: {oltp_in_dram:4d}/{OLTP_PAGES}")
    return oltp_in_dram


def main() -> None:
    print("Interleaved OLTP (Zipfian updates) + OLAP (repeated table"
          " scans):\n")
    shared = run("unified pool", build(OSPagingPolicy(
        check_interval=10**9)))
    isolated = run("OLTP|OLAP split", build(StaticPolicy(
        lambda page: 0 if page < OLTP_PAGES else 1)))

    print(f"\nThe scan flood displaced "
          f"{OLTP_PAGES - shared} OLTP pages from DRAM in the unified"
          f" pool;\nstatic CXL placement displaced"
          f" {OLTP_PAGES - isolated}. The OLTP and OLAP data"
          " structures no longer interfere (Sec 3.1).")


if __name__ == "__main__":
    main()
