"""E7 — Rack-scale memory sharing vs scale-out, Fig 2(c) (Sec 3.3).

Shapes reproduced:
* throughput vs distributed-transaction fraction: the sharded 2PC
  engine wins when everything is partitionable and degrades steeply
  as cross-partition transactions appear; the shared-memory engine is
  flat, with a crossover near ~10% distributed transactions;
* the shared engine scales with added compute hosts without any
  repartitioning;
* coherency traffic depends on the data structure (a contended
  counter vs a partitioned structure) — the Sec 3.3 research question;
* hash-vs-sort: with work memory at GFAM latency, the planner's
  crossover moves toward sort for large inputs.
"""

from repro import config
from repro.core.scaleout import ScaleOutConfig, ScaleOutEngine
from repro.core.shared import SharedEngineConfig, SharedRackEngine
from repro.metrics.report import Table
from repro.query.operators import TableScan
from repro.query.planner import JoinPlanner
from repro.query.schema import Column, Schema
from repro.query.table import Table as RelTable
from repro.sim.coherence import CoherenceDirectory
from repro.sim.interconnect import AccessPath, Link
from repro.sim.memory import MemoryDevice
from repro.storage.disk import StorageDevice
from repro.storage.file import PageFile
from repro.workloads.tpcc import TPCCLite

NODES = 4
TXNS = 1_500


def run_distribution_sweep():
    rows = []
    for remote in (0.0, 0.01, 0.05, 0.10, 0.20, 0.30):
        txns = list(TPCCLite(num_warehouses=16,
                             remote_probability=remote,
                             seed=3).transactions(TXNS))
        up = SharedRackEngine(
            SharedEngineConfig(num_hosts=NODES)).run(txns)
        out = ScaleOutEngine(
            ScaleOutConfig(num_nodes=NODES)).run(txns)
        rows.append((remote, up.throughput_tps, out.throughput_tps))
    return rows


def run_host_scaling():
    txns = list(TPCCLite(num_warehouses=64, remote_probability=0.1,
                         seed=4).transactions(TXNS))
    rows = []
    for hosts in (1, 2, 4, 8):
        report = SharedRackEngine(
            SharedEngineConfig(num_hosts=hosts)).run(txns)
        rows.append((hosts, report.throughput_tps))
    return rows


def run_coherency_traffic(writes=2_000, agents=8):
    contended = CoherenceDirectory()
    ids = [contended.register_agent() for _ in range(agents)]
    for i in range(writes):
        contended.write(ids[i % agents], 0)

    partitioned = CoherenceDirectory()
    ids2 = [partitioned.register_agent() for _ in range(agents)]
    for i in range(writes):
        partitioned.write(ids2[i % agents], i % agents)
    return (contended.stats.invalidations_per_write,
            partitioned.stats.invalidations_per_write)


def run_hash_vs_sort():
    """Planner cost crossover for DRAM vs GFAM work memory."""
    pf = PageFile(StorageDevice())
    schema = Schema([Column("k"), Column("v")])
    table = RelTable("t", schema, pf)
    table.bulk_load([(0, 0)])
    dram = AccessPath(device=MemoryDevice(config.local_ddr5()))
    gfam = AccessPath(
        device=MemoryDevice(config.cxl_expander_ddr5()),
        links=(Link(config.cxl_port()), Link(config.cxl_switch_hop()),
               Link(config.cxl_switch_hop())),
    )
    rows = []
    for size in (4_000, 100_000, 1_000_000, 10_000_000):
        choices = {}
        for name, path in (("dram", dram), ("gfam", gfam)):
            planner = JoinPlanner(work_path=path, work_mem_rows=50_000_000)
            _op, choice = planner.choose_join(
                TableScan(table), TableScan(table), "k", "k", size, size)
            choices[name] = choice.algorithm
        rows.append((size, choices["dram"], choices["gfam"]))
    return rows


def run_experiment(show=False):
    sweep = run_distribution_sweep()
    scaling = run_host_scaling()
    inv_contended, inv_partitioned = run_coherency_traffic()
    hash_sort = run_hash_vs_sort()

    table = Table("E7: scale-up vs scale-out (Fig 2c, Sec 3.3)", [
        "distributed txns", "scale-up tps", "scale-out tps", "ratio",
        "expected",
    ])
    for remote, up, out in sweep:
        expected = "scale-out wins" if remote < 0.05 else (
            "near crossover" if remote <= 0.10 else "scale-up wins")
        table.add_row(f"{remote:.0%}", f"{up:,.0f}", f"{out:,.0f}",
                      f"{up / out:.2f}", expected)

    table2 = Table("E7b: shared-engine host scaling", [
        "hosts", "tps", "speedup vs 1 host",
    ])
    base = scaling[0][1]
    for hosts, tps in scaling:
        table2.add_row(hosts, f"{tps:,.0f}", f"{tps / base:.1f}x")

    table3 = Table("E7c: coherency traffic by data structure", [
        "structure", "invalidations/write", "expected",
    ])
    table3.add_row("contended shared counter",
                   f"{inv_contended:.2f}", "~1 (ping-pong)")
    table3.add_row("partitioned per-host lines",
                   f"{inv_partitioned:.2f}", "~0")

    table4 = Table("E7d: hash vs sort with GFAM work memory", [
        "rows per side", "DRAM choice", "GFAM choice",
    ])
    for size, dram_choice, gfam_choice in hash_sort:
        table4.add_row(f"{size:,}", dram_choice, gfam_choice)
    if show:
        table.show()
        table2.show()
        table3.show()
        table4.show()
    return sweep, scaling, (inv_contended, inv_partitioned), hash_sort


def test_e7_sharing_vs_scaleout(benchmark):
    benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    sweep, scaling, (inv_c, inv_p), hash_sort = run_experiment(show=True)
    ratios = {remote: up / out for remote, up, out in sweep}
    assert ratios[0.0] < 1.0          # scale-out wins partitionable
    assert ratios[0.30] > 1.2         # scale-up wins distributed
    assert scaling[-1][1] > 3 * scaling[0][1]  # hosts scale
    assert inv_c > 10 * max(inv_p, 0.01)
    # Cache-resident joins stay hash everywhere; large joins flip to
    # sort-merge when work memory is GFAM (the crossover moved).
    assert hash_sort[0][1] == "hash" and hash_sort[0][2] == "hash"
    assert hash_sort[-1][1] == "hash"
    assert hash_sort[-1][2] == "sort-merge"
