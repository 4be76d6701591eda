"""E6 — Memory pooling and elasticity, Fig 2(b) (paper Sec 3.2).

Shapes reproduced:
* stranded memory: per-server provisioning strands a large share of
  installed DRAM under skewed demand; a rack pool sized for aggregate
  demand needs materially less memory (Pond's provisioning argument);
* warm spawn: an engine attached to a pooled buffer pool answers at
  full speed immediately — no warm-up phase;
* migration: moving an engine whose state lives in the pool is a
  remap (microseconds), not a state copy (hundreds of ms over RDMA).
"""

import random

from repro.core.elastic import DemandSeries, ElasticCluster, StrandingModel
from repro.metrics.report import Table
from repro.units import GIB, fmt_bytes, fmt_ns
from repro.workloads import YCSBConfig, ycsb_blocks

DATASET_PAGES = 2_000


def run_stranding():
    rng = random.Random(31)
    # Skewed per-server demands, as hyperscalers report.
    demands = [int(rng.choice([6, 10, 18, 30, 52, 60]) * GIB)
               for _ in range(16)]
    return StrandingModel(
        demands_bytes=demands, per_server_dram=64 * GIB,
        base_dram=16 * GIB,
    )


def run_elasticity():
    cluster = ElasticCluster(dataset_pages=DATASET_PAGES)
    cfg = YCSBConfig(mix="C", num_pages=DATASET_PAGES, num_ops=10_000,
                     theta=0.9, think_ns=0, seed=7)
    cold, spawn_cold = cluster.spawn_engine(
        "cold", local_pages=256, slice_pages=DATASET_PAGES + 64)
    r_cold = cold.run(ycsb_blocks(cfg))
    slice_ = cluster.detach_engine(cold)
    warm, spawn_warm = cluster.spawn_engine(
        "warm", local_pages=256, warm_from=slice_)
    r_warm = warm.run(ycsb_blocks(cfg))
    migration_pooled = cluster.migration_time_ns(8 * GIB, pooled=True)
    migration_copy = cluster.migration_time_ns(8 * GIB, pooled=False)
    return (r_cold, r_warm, spawn_cold, spawn_warm,
            migration_pooled, migration_copy)


def run_experiment(show=False):
    model = run_stranding()
    (r_cold, r_warm, _sc, spawn_warm,
     mig_pool, mig_copy) = run_elasticity()

    table = Table("E6: pooling and elasticity (Fig 2b, Sec 3.2)", [
        "metric", "paper claim", "measured",
    ])
    table.add_row("per-server DRAM installed", "-",
                  fmt_bytes(model.provisioned_bytes))
    table.add_row("stranded under per-server", "major inefficiency",
                  f"{model.stranded_fraction:.0%}")
    table.add_row("pooled total installed", "less memory needed",
                  fmt_bytes(model.pooled_total_bytes))
    table.add_row("memory saved by pooling", "-",
                  f"{model.savings_fraction:.0%}")
    table.add_row("cold-engine run", "needs warm-up",
                  fmt_ns(r_cold.total_ns))
    table.add_row("warm-spawned engine run", "immediately ready",
                  fmt_ns(r_warm.total_ns))
    table.add_row("warm-up penalty avoided", "-",
                  f"{r_cold.total_ns / r_warm.total_ns:.1f}x")
    table.add_row("warm spawn time", "no state load",
                  fmt_ns(spawn_warm))
    table.add_row("migration (state in pool)", "far simpler",
                  fmt_ns(mig_pool))
    table.add_row("migration (copy 8 GiB/RDMA)", "-",
                  fmt_ns(mig_copy))

    # Pond's sweep: DRAM savings vs pool fraction over a diurnal fleet.
    curve = DemandSeries.diurnal().savings_curve()
    table2 = Table("E6b: DRAM savings vs pool fraction (Pond curve)", [
        "pool fraction", "DRAM savings", "paper (Pond)",
    ])
    for fraction, savings in curve:
        note = "~7-9% at realistic fractions" \
            if 0.25 <= fraction <= 0.5 else "-"
        table2.add_row(f"{fraction:.0%}", f"{savings:.1%}", note)
    if show:
        table.show()
        table2.show()
    return model, r_cold, r_warm, mig_pool, mig_copy, curve


def test_e6_pooling_elasticity(benchmark):
    benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    model, r_cold, r_warm, mig_pool, mig_copy, curve = \
        run_experiment(show=True)
    assert model.stranded_fraction > 0.3
    assert model.savings_fraction > 0.2
    assert r_cold.total_ns > 2 * r_warm.total_ns
    assert mig_copy > 100 * mig_pool
    savings = dict(curve)
    assert 0.03 < savings[0.5] < 0.25  # Pond's realistic band
    assert savings[1.0] > savings[0.25] > savings[0.0] == 0.0
