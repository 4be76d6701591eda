#!/usr/bin/env python3
"""Serverless-grade elasticity from pooled CXL memory (Sec 3.2).

The buffer pool lives in a rack-level memory pool behind a CXL
switch. Query engines come and go:

* engine A runs a workload, warming the pooled buffer;
* engine A is torn down (scale-to-zero); the warm state stays in the
  pool;
* engine B spawns on another host, adopts the slice, and serves at
  full speed instantly — "no need to warm up the database";
* migrating an engine is a remap, not a state copy.

Run:  python examples/elastic_cloud.py
"""

from repro.core.elastic import ElasticCluster
from repro.units import GIB, fmt_ns
from repro.workloads import YCSBConfig, ycsb_blocks

DATASET_PAGES = 3_000


def trace(seed=21):
    return ycsb_blocks(YCSBConfig(
        mix="B", num_pages=DATASET_PAGES, num_ops=15_000,
        theta=0.9, think_ns=50.0, seed=seed,
    ))


def main() -> None:
    cluster = ElasticCluster(dataset_pages=DATASET_PAGES)

    print("1. Spawn engine A against a cold pool slice...")
    engine_a, spawn_a = cluster.spawn_engine(
        "engine-a", local_pages=256, slice_pages=DATASET_PAGES + 64)
    report_a = engine_a.run(trace(), label="A-cold")
    print(f"   spawn {fmt_ns(spawn_a)}, cold run"
          f" {fmt_ns(report_a.total_ns)}"
          f" ({report_a.misses:,} storage faults)")

    print("2. Tear engine A down; its buffer state stays pooled.")
    slice_ = cluster.detach_engine(engine_a)
    print(f"   {len(slice_.resident_pages):,} pages remain warm in"
          " the pool slice")

    print("3. Spawn engine B on another host from the warm slice...")
    engine_b, spawn_b = cluster.spawn_engine(
        "engine-b", local_pages=256, warm_from=slice_)
    report_b = engine_b.run(trace(), label="B-warm")
    print(f"   spawn {fmt_ns(spawn_b)}, warm run"
          f" {fmt_ns(report_b.total_ns)}"
          f" ({report_b.misses:,} storage faults)")

    speedup = report_a.total_ns / report_b.total_ns
    print(f"\n   Warm spawn served the same workload {speedup:.1f}x"
          " faster - no warm-up phase.")

    print("\n4. Migration cost for an 8 GiB engine:")
    pooled = cluster.migration_time_ns(8 * GIB, pooled=True)
    copied = cluster.migration_time_ns(8 * GIB, pooled=False)
    print(f"   state in pool : {fmt_ns(pooled)} (remap)")
    print(f"   state copied  : {fmt_ns(copied)} (RDMA transfer)")
    print(f"   -> {copied / pooled:,.0f}x cheaper when the buffer pool"
          " is disaggregated (Sec 3.2).")


if __name__ == "__main__":
    main()
