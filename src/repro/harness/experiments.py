"""Experiment kernels runnable from a :class:`Scenario`.

Each kernel is a function ``(scenario, ctx) -> dict`` registered under
a dotted name; :func:`run_scenario` looks the kernel up, builds a fresh
:class:`~repro.sim.context.SimContext` for the cell (the PR-1 one-clock
invariant: one context, one clock, per simulated configuration) and
validates that the result is a flat JSON-serializable mapping.

Every experiment of EXPERIMENTS.md is a kernel here, run by a spec
under ``specs/``: a kernel simulates exactly one grid cell and returns
raw metrics; comparisons ("who wins", ratio bounds, crossover
positions) live in baseline gate files (:mod:`repro.harness.gate`).
The kernels the first gated specs ran (E1, E2, E4, E7's distribution
sweep, A7's interference grid, A8's Pond-at-scale grid) use this
module's imports; every other kernel imports what it runs in its own
body, so ``import repro.harness`` loads no more for them.

``debug.*`` kernels exercise the executor itself (crash isolation,
timeouts, determinism) and are intentionally cheap.
"""

from __future__ import annotations

import os
import random
import time
from typing import Any, Callable, Mapping

import numpy as np

from .. import config
from ..core.autoscale import ExpanderScaler
from ..core.buffer import Tier, TieredBufferPool
from ..core.elastic import PagePool
from ..core.engine import ScaleUpEngine
from ..core.placement import OSPagingPolicy, StaticPolicy
from ..core.scaleout import ScaleOutConfig, ScaleOutEngine
from ..core.sessions import ClientSession
from ..core.shared import SharedEngineConfig, SharedRackEngine
from ..errors import ConfigError, SimulationError
from ..serving import (
    ChurnConfig,
    ChurnSimulator,
    ServingConfig,
    TenantTable,
    assign_churn,
    run_serving,
)
from ..sim.context import SimContext
from ..sim.interconnect import AccessPath, Link
from ..sim.ladder import repeat_add
from ..sim.memory import MemoryDevice
from ..sim.numa import NUMASystem
from ..sim.rdma import RDMAFabric
from ..units import CACHE_LINE, MIB, SECOND, us
from ..workloads.traces import AccessBlock
from ..workloads.tpcc import TPCCLite
from ..workloads.ycsb import YCSBConfig, ycsb_blocks
from .scenario import Scenario, canonical_json

#: Registered kernels: dotted name -> (scenario, ctx) -> result dict.
RUNNERS: dict[str, Callable[[Scenario, SimContext], dict]] = {}


def runner(name: str) -> Callable:
    """Register an experiment kernel under *name*."""

    def register(fn: Callable[[Scenario, SimContext], dict]) -> Callable:
        if name in RUNNERS:
            raise ConfigError(f"duplicate experiment kernel {name!r}")
        RUNNERS[name] = fn
        return fn

    return register


def run_scenario(scenario: Scenario) -> dict:
    """Execute one scenario cell in a fresh SimContext."""
    try:
        kernel = RUNNERS[scenario.experiment]
    except KeyError:
        raise ConfigError(
            f"unknown experiment {scenario.experiment!r}; registered:"
            f" {sorted(RUNNERS)}"
        ) from None
    result = kernel(scenario, SimContext())
    if not isinstance(result, Mapping):
        raise SimulationError(
            f"{scenario.experiment} returned {type(result).__name__},"
            " expected a mapping of metrics"
        )
    result = dict(result)
    try:
        canonical_json(result)
    except (TypeError, ValueError) as exc:
        raise SimulationError(
            f"{scenario.experiment} result is not JSON-serializable:"
            f" {exc}"
        ) from exc
    return result


def _param(group: Mapping[str, Any], key: str, default: Any = None) -> Any:
    # Without a default the spec is the one place the value is written.
    value = group.get(key, default)
    if value is None:
        raise ConfigError(f"parameter {key!r} is required")
    return value


# ---------------------------------------------------------------------------
# E1 — CXL vs NUMA latency and bandwidth (Sec 2.4).
# ---------------------------------------------------------------------------

@runner("e1.memory_path")
def e1_memory_path(scenario: Scenario, ctx: SimContext) -> dict:
    """Latency/bandwidth of one memory path on a 2-socket + expander box.

    ``topology.target`` picks the path: ``local`` (same-socket DRAM),
    ``numa`` (one UPI hop), or ``cxl`` (the expander, optionally
    ``topology.through_switch``).
    """
    topo, wl = scenario.topology, scenario.workload
    system = NUMASystem()
    s0 = system.add_socket(
        MemoryDevice(config.local_ddr5(), name="s0", ctx=ctx))
    s1 = system.add_socket(
        MemoryDevice(config.local_ddr5(), name="s1", ctx=ctx))
    cxl = system.add_cxl_expander(
        MemoryDevice(config.cxl_expander_ddr5(), ctx=ctx),
        attached_to=s0,
        through_switch=bool(topo.get("through_switch", False)),
    )
    paths = {
        "local": system.path(s0, s0),
        "numa": system.path(s0, s1),
        "cxl": system.path(s0, cxl),
    }
    target = _param(topo, "target", "cxl")
    if target not in paths:
        raise ConfigError(
            f"topology.target must be one of {sorted(paths)},"
            f" got {target!r}"
        )
    path = paths[target]

    accesses = int(_param(wl, "accesses", 10_000))
    # The unloaded read time is one constant, so the per-access sum is
    # its left fold, not ``accesses * x``.
    total = repeat_add(0.0, path.read_time(CACHE_LINE), accesses)
    stream_bytes = int(_param(wl, "stream_bytes", 64 * MIB))
    return {
        "load_ns": total / accesses,
        "store_ns": path.write_latency_ns(),
        "stream_gbps": stream_bytes / path.read_time_sequential(
            stream_bytes),
    }


# ---------------------------------------------------------------------------
# E2 — OS-driven CXL tiering, TPP-style (Sec 2.4).
# ---------------------------------------------------------------------------

@runner("e2.tiering")
def e2_tiering(scenario: Scenario, ctx: SimContext) -> dict:
    """One tiering configuration under a seeded YCSB trace.

    ``policy.kind`` selects ``all_dram`` / ``os_paging`` / ``static``;
    the warm-up trace uses ``seed`` and the measured trace ``seed + 1``,
    so cells sharing a base seed (``per_cell_seeds = false``) replay
    the identical workload and their runtimes are directly comparable.
    """
    topo, wl, pol = scenario.topology, scenario.workload, scenario.policy
    pages = int(_param(wl, "num_pages", 4_000))
    dram_share = float(_param(topo, "dram_share", 0.50))
    dram_pages = int(pages * dram_share)
    kind = _param(pol, "kind", "os_paging")

    if kind == "all_dram":
        engine = ScaleUpEngine.build(
            dram_pages=pages + 8, with_storage=False, ctx=ctx)
    elif kind == "os_paging":
        engine = ScaleUpEngine.build(
            dram_pages=dram_pages, cxl_pages=pages + 8,
            placement=OSPagingPolicy(
                sample_rate=float(pol.get("sample_rate", 0.05)),
                check_interval=int(pol.get("check_interval", 1_000)),
            ),
            with_storage=False, ctx=ctx)
    elif kind == "static":
        engine = ScaleUpEngine.build(
            dram_pages=dram_pages, cxl_pages=pages + 8,
            placement=StaticPolicy(
                lambda p: 0 if p < dram_pages else 1),
            with_storage=False, ctx=ctx)
    else:
        raise ConfigError(
            "policy.kind must be all_dram, os_paging or static;"
            f" got {kind!r}"
        )

    def trace(seed: int):
        return ycsb_blocks(YCSBConfig(
            mix=wl.get("mix", "B"),
            num_pages=pages,
            num_ops=int(wl.get("num_ops", 25_000)),
            theta=float(wl.get("theta", 0.99)),
            think_ns=float(wl.get("think_ns", 300.0)),
            seed=seed,
        ))

    engine.warm_with(trace(scenario.seed))
    report = engine.run(trace(scenario.seed + 1))
    result = {
        "total_ns": report.total_ns,
        "ops": report.ops,
        "hit_rate": report.hit_rate,
        "migrations": report.migrations,
    }
    if report.tier_hit_rates:
        result["fast_tier_hit_rate"] = report.tier_hit_rates[0]
    return result


# ---------------------------------------------------------------------------
# E3 — Pond's workload population and TPC-H (Sec 2.4, ref [31]).
# ---------------------------------------------------------------------------

@runner("e3.pond_population")
def e3_pond_population(scenario: Scenario, ctx: SimContext) -> dict:
    """Pond's population, each workload all-DRAM vs all-CXL.

    Returns the population's share in each slowdown bucket; the gate
    holds them near Pond's ~26 % (<1 %) and ~17 % (1-5 %).
    """
    from ..workloads.cloudmix import generate_population

    wl = scenario.workload
    slowdowns = []
    for workload in generate_population(
            count=int(_param(wl, "count")),
            num_ops=int(_param(wl, "num_ops")),
            seed=scenario.seed):
        pages = workload.working_set_pages + 8
        dram = ScaleUpEngine.build(dram_pages=pages, with_storage=False)
        cxl = ScaleUpEngine.build(
            dram_pages=1, cxl_pages=pages,
            placement=StaticPolicy(lambda _p: 1), with_storage=False)
        dram_ns = dram.run(workload.trace_blocks()).total_ns
        slowdowns.append(
            cxl.run(workload.trace_blocks()).total_ns / dram_ns - 1.0)
    n = len(slowdowns)
    return {
        "workloads": n,
        "under_1pct": sum(s < 0.01 for s in slowdowns) / n,
        "from_1_to_5pct": sum(0.01 <= s < 0.05 for s in slowdowns) / n,
        "over_25pct": sum(s >= 0.25 for s in slowdowns) / n,
    }


@runner("e3.tpch")
def e3_tpch(scenario: Scenario, ctx: SimContext) -> dict:
    """TPC-H query overheads under a Pond-like striped placement.

    ``policy.cxl_fraction`` of the pages are interleaved onto CXL by
    page id (Pond stripes memory in hardware; the engine does not get
    to choose). Each query runs warm, all-DRAM and striped, on freshly
    generated data.
    """
    from ..query import tpch
    from ..storage.disk import StorageDevice
    from ..storage.file import PageFile

    rows = int(_param(scenario.workload, "lineitem_rows"))
    cxl_pct = int(float(_param(scenario.policy, "cxl_fraction")) * 100)

    def query_ns(query, striped: bool) -> float:
        pf = PageFile(StorageDevice())
        data = tpch.generate(pf, lineitem_rows=rows)
        pages = data.total_pages + 8
        if striped:
            engine = ScaleUpEngine.build(
                dram_pages=pages, cxl_pages=pages, backing=pf,
                placement=StaticPolicy(
                    lambda p: int((p * 2_654_435_761) % 100 < cxl_pct)))
        else:
            engine = ScaleUpEngine.build(dram_pages=pages, backing=pf)
        query(engine, data)  # warm
        start = engine.pool.clock.now
        query(engine, data)
        return engine.pool.clock.now - start

    overhead = {}
    for name, query in tpch.QUERIES.items():
        dram = query_ns(query, False)
        overhead[name] = query_ns(query, True) / dram - 1.0
    return {
        "overhead": overhead,
        "queries": len(overhead),
        "under_20pct": sum(o < 0.20 for o in overhead.values()),
    }


# ---------------------------------------------------------------------------
# E4 — CXL fabric vs RDMA networking (Sec 2.5).
# ---------------------------------------------------------------------------

@runner("e4.cxl_vs_rdma")
def e4_cxl_vs_rdma(scenario: Scenario, ctx: SimContext) -> dict:
    """One transfer size over an RDMA fabric vs a switched CXL path."""
    topo, wl = scenario.topology, scenario.workload
    size = int(_param(wl, "transfer_bytes", CACHE_LINE))
    fabric = RDMAFabric()
    fabric.add_host("a")
    fabric.add_host("b")
    links = [Link(config.cxl_port(), ctx=ctx)]
    links += [Link(config.cxl_switch_hop(), ctx=ctx)
              for _ in range(int(topo.get("switch_hops", 1)))]
    cxl = AccessPath(
        device=MemoryDevice(config.cxl_expander_ddr5(), ctx=ctx),
        links=tuple(links),
    )
    rdma_ns = fabric.one_sided_read_time("a", "b", size)
    cxl_ns = cxl.read_time(size)
    nic = fabric.nic("a")
    return {
        "rdma_ns": rdma_ns,
        "cxl_ns": cxl_ns,
        "advantage": rdma_ns / cxl_ns,
        "nic_wasted_pcie_fraction": nic.wasted_pcie_fraction,
    }


# ---------------------------------------------------------------------------
# E5 — memory expansion policies, Fig 2(a) (Sec 3.1).
# ---------------------------------------------------------------------------

@runner("e5.expansion")
def e5_expansion(scenario: Scenario, ctx: SimContext) -> dict:
    """One expansion policy at one DRAM share, steady state.

    ``policy.kind`` is ``ssd`` (page to SSD), ``os`` (OS tiering to
    CXL) or ``db`` (the engine's cost-based tiering). The engine warms
    with the measured trace itself.
    """
    from ..core.placement import DbCostPolicy

    topo, wl, pol = scenario.topology, scenario.workload, scenario.policy
    pages = int(_param(wl, "num_pages"))
    dram_pages = max(1, int(pages * float(_param(topo, "dram_share"))))
    kind = _param(pol, "kind")
    if kind == "ssd":
        engine = ScaleUpEngine.build(dram_pages=dram_pages)
    elif kind == "os":
        engine = ScaleUpEngine.build(
            dram_pages=dram_pages, cxl_pages=pages + 8,
            placement=OSPagingPolicy(sample_rate=0.05, check_interval=1_000))
    elif kind == "db":
        engine = ScaleUpEngine.build(
            dram_pages=dram_pages, cxl_pages=pages + 8,
            placement=DbCostPolicy(rebalance_interval=2_000))
    else:
        raise ConfigError(f"policy.kind must be ssd, os or db; got {kind!r}")
    cfg = YCSBConfig(mix="B", num_pages=pages,
                     num_ops=int(_param(wl, "num_ops")), theta=0.99,
                     think_ns=float(_param(wl, "think_ns")),
                     seed=scenario.seed)
    engine.warm_with(ycsb_blocks(cfg))
    report = engine.run(ycsb_blocks(cfg))
    return {"total_ns": report.total_ns, "hit_rate": report.hit_rate}


@runner("e5.htap_isolation")
def e5_htap_isolation(scenario: Scenario, ctx: SimContext) -> dict:
    """OLTP pages left in DRAM after an HTAP run under one placement.

    ``policy.kind`` is ``static`` (OLTP pages pinned local, OLAP on
    CXL) or ``shared`` (OS paging that never rebalances: LRU-like).
    """
    from ..workloads import mixed_htap_blocks

    wl = scenario.workload
    oltp_pages = int(_param(wl, "oltp_pages"))
    kind = _param(scenario.policy, "kind")
    if kind == "static":
        placement = StaticPolicy(lambda p: 0 if p < oltp_pages else 1)
    elif kind == "shared":
        placement = OSPagingPolicy(check_interval=10**9)
    else:
        raise ConfigError(
            f"policy.kind must be static or shared; got {kind!r}")
    engine = ScaleUpEngine.build(dram_pages=1_000, cxl_pages=8_000,
                                 placement=placement, with_storage=False)
    report = engine.run(mixed_htap_blocks(
        oltp_pages=oltp_pages, olap_pages=int(_param(wl, "olap_pages")),
        oltp_ops=int(_param(wl, "oltp_ops")), olap_repeats=1,
        seed=scenario.seed))
    return {
        "oltp_pages_in_dram": sum(
            1 for p in engine.pool.resident_in(0) if p < oltp_pages),
        "total_ns": report.total_ns,
    }


# ---------------------------------------------------------------------------
# E6 — memory pooling and elasticity, Fig 2(b) (Sec 3.2).
# ---------------------------------------------------------------------------

@runner("e6.pooling")
def e6_pooling(scenario: Scenario, ctx: SimContext) -> dict:
    """Stranded memory, warm spawn and migration on a pooled rack.

    Sixteen servers draw skewed demands (``seed``); one engine runs
    cold on a fresh pool slice, detaches, and a second engine spawns
    warm on that slice and runs the same trace.
    """
    from ..core.elastic import ElasticCluster, StrandingModel
    from ..units import GIB

    wl = scenario.workload
    rng = random.Random(scenario.seed)
    model = StrandingModel(
        demands_bytes=[int(rng.choice([6, 10, 18, 30, 52, 60]) * GIB)
                       for _ in range(int(_param(wl, "servers")))],
        per_server_dram=64 * GIB, base_dram=16 * GIB)
    pages = int(_param(wl, "dataset_pages"))
    cluster = ElasticCluster(dataset_pages=pages)
    cfg = YCSBConfig(mix="C", num_pages=pages, num_ops=10_000, theta=0.9,
                     think_ns=0, seed=int(_param(wl, "trace_seed")))
    cold, _ = cluster.spawn_engine("cold", local_pages=256,
                                   slice_pages=pages + 64)
    cold_ns = cold.run(ycsb_blocks(cfg)).total_ns
    warm, warm_spawn_ns = cluster.spawn_engine(
        "warm", local_pages=256, warm_from=cluster.detach_engine(cold))
    return {
        "provisioned_bytes": model.provisioned_bytes,
        "pooled_total_bytes": model.pooled_total_bytes,
        "stranded_fraction": model.stranded_fraction,
        "savings_fraction": model.savings_fraction,
        "cold_run_ns": cold_ns,
        "warm_run_ns": warm.run(ycsb_blocks(cfg)).total_ns,
        "warm_spawn_ns": warm_spawn_ns,
        "migration_pooled_ns": cluster.migration_time_ns(8 * GIB, pooled=True),
        "migration_copy_ns": cluster.migration_time_ns(8 * GIB, pooled=False),
    }


@runner("e6.savings_curve")
def e6_savings_curve(scenario: Scenario, ctx: SimContext) -> dict:
    """DRAM saved when ``policy.pool_fraction`` of memory is pooled,
    over a phase-shifted diurnal fleet (Pond's curve)."""
    from ..core.elastic import DemandSeries

    fraction = float(_param(scenario.policy, "pool_fraction"))
    return {"savings": DemandSeries.diurnal(
        seed=scenario.seed).savings_at(fraction)}


# ---------------------------------------------------------------------------
# E7 — rack-scale sharing vs scale-out, Fig 2(c) (Sec 3.3).
# ---------------------------------------------------------------------------

@runner("e7.sharing_vs_scaleout")
def e7_sharing_vs_scaleout(scenario: Scenario, ctx: SimContext) -> dict:
    """Shared-memory vs sharded-2PC throughput at one distributed mix.

    Both engines replay the same seeded TPC-C-lite transaction stream;
    the crossover along ``workload.remote_fraction`` is asserted by the
    gate, not computed here.
    """
    topo, wl = scenario.topology, scenario.workload
    nodes = int(_param(topo, "nodes", 4))
    txns = list(TPCCLite(
        num_warehouses=int(_param(wl, "warehouses", 16)),
        remote_probability=float(_param(wl, "remote_fraction", 0.1)),
        seed=scenario.seed,
    ).transactions(int(_param(wl, "txns", 1_500))))
    up = SharedRackEngine(
        SharedEngineConfig(num_hosts=nodes)).run(txns)
    out = ScaleOutEngine(
        ScaleOutConfig(num_nodes=nodes)).run(txns)
    return {
        "scale_up_tps": up.throughput_tps,
        "scale_out_tps": out.throughput_tps,
        "ratio": up.throughput_tps / out.throughput_tps,
    }


@runner("e7.host_scaling")
def e7_host_scaling(scenario: Scenario, ctx: SimContext) -> dict:
    """The shared-memory engine's throughput at ``topology.hosts``
    compute hosts, with no repartitioning."""
    wl = scenario.workload
    txns = list(TPCCLite(
        num_warehouses=int(_param(wl, "warehouses")),
        remote_probability=float(_param(wl, "remote_fraction")),
        seed=scenario.seed,
    ).transactions(int(_param(wl, "txns"))))
    report = SharedRackEngine(SharedEngineConfig(
        num_hosts=int(_param(scenario.topology, "hosts")))).run(txns)
    return {"tps": report.throughput_tps}


@runner("e7.coherency")
def e7_coherency(scenario: Scenario, ctx: SimContext) -> dict:
    """Invalidations per write for one shared data structure.

    ``workload.structure`` is ``contended`` (every agent writes one
    line, a shared counter) or ``partitioned`` (each agent its own).
    """
    from ..sim.coherence import CoherenceDirectory

    wl = scenario.workload
    agents = int(_param(wl, "agents"))
    structure = _param(wl, "structure")
    if structure not in ("contended", "partitioned"):
        raise ConfigError("workload.structure must be contended or"
                          f" partitioned; got {structure!r}")
    directory = CoherenceDirectory()
    ids = [directory.register_agent() for _ in range(agents)]
    for i in range(int(_param(wl, "writes"))):
        directory.write(ids[i % agents],
                        0 if structure == "contended" else i % agents)
    return {"invalidations_per_write":
            directory.stats.invalidations_per_write}


@runner("e7.hash_vs_sort")
def e7_hash_vs_sort(scenario: Scenario, ctx: SimContext) -> dict:
    """The planner's join choice with work memory on DRAM or GFAM.

    ``JoinPlanner.choose_join`` picks hash or sort-merge for two
    ``workload.rows``-row inputs; ``topology.work_memory`` is ``dram``
    or ``gfam`` (an expander behind two switch hops).
    """
    from ..query.operators import TableScan
    from ..query.planner import JoinPlanner
    from ..query.schema import Column, Schema
    from ..query.table import Table
    from ..storage.disk import StorageDevice
    from ..storage.file import PageFile

    rows = int(_param(scenario.workload, "rows"))
    memory = _param(scenario.topology, "work_memory")
    if memory == "dram":
        path = AccessPath(device=MemoryDevice(config.local_ddr5()))
    elif memory == "gfam":
        path = AccessPath(
            device=MemoryDevice(config.cxl_expander_ddr5()),
            links=(Link(config.cxl_port()), Link(config.cxl_switch_hop()),
                   Link(config.cxl_switch_hop())))
    else:
        raise ConfigError("topology.work_memory must be dram or gfam;"
                          f" got {memory!r}")
    table = Table("t", Schema([Column("k"), Column("v")]),
                  PageFile(StorageDevice()))
    table.bulk_load([(0, 0)])
    planner = JoinPlanner(work_path=path, work_mem_rows=50_000_000)
    _op, choice = planner.choose_join(
        TableScan(table), TableScan(table), "k", "k", rows, rows)
    return {
        "sort_merge": int(choice.algorithm == "sort-merge"),
        "hash_cost_ns": choice.hash_cost_ns,
        "sort_cost_ns": choice.sort_cost_ns,
    }


# ---------------------------------------------------------------------------
# A7 — OLTP/OLAP bandwidth interference on expanders (Sec 3.1).
# ---------------------------------------------------------------------------

@runner("a7.interference")
def a7_interference(scenario: Scenario, ctx: SimContext) -> dict:
    """OLTP point-lookup tail under concurrent scan sessions.

    The A10 experiment (EXPERIMENTS.md) as a sweep kernel: each
    cell runs ``workload.point_sessions`` point-lookup clients and
    ``workload.scan_sessions`` 64 KiB-readahead scan clients as genuine
    concurrency through the session scheduler
    (:class:`~repro.core.sessions.ConcurrentEngine`), on either one
    shared expander or two (``topology.expanders``: OLTP pinned to its
    own device). The gate asserts the interference shape — scans
    inflate the point tail on a shared expander, a second expander
    restores it — across cells.
    """
    topo, wl = scenario.topology, scenario.workload
    oltp_pages = int(_param(wl, "oltp_pages", 1_000))
    olap_pages = int(_param(wl, "olap_pages", 4_000))
    expanders = int(_param(topo, "expanders", 1))

    if expanders == 1:
        engine = ScaleUpEngine.build(
            dram_pages=1, cxl_pages=oltp_pages + olap_pages + 16,
            placement=StaticPolicy(lambda _p: 1),
            with_storage=False, ctx=ctx)
    elif expanders == 2:
        tiers = [
            Tier("dram", AccessPath(
                device=MemoryDevice(config.local_ddr5(), ctx=ctx)), 1),
            Tier("cxl-oltp", AccessPath(
                device=MemoryDevice(config.cxl_expander_ddr5(),
                                    name="oltp-exp", ctx=ctx),
                links=(Link(config.cxl_port(), ctx=ctx),)),
                oltp_pages + 8),
            Tier("cxl-olap", AccessPath(
                device=MemoryDevice(config.cxl_expander_ddr5(),
                                    name="olap-exp", ctx=ctx),
                links=(Link(config.cxl_port(), ctx=ctx),)),
                olap_pages + 8),
        ]
        pool = TieredBufferPool(
            tiers=tiers,
            placement=StaticPolicy(
                lambda p: 1 if p < oltp_pages else 2),
            ctx=ctx)
        engine = ScaleUpEngine(pool)
    else:
        raise ConfigError(
            f"topology.expanders must be 1 or 2, got {expanders}")
    for page in range(oltp_pages + olap_pages):
        engine.pool.access(page)

    def point_trace(seed: int):
        rng = random.Random(seed)
        ids = [rng.randrange(oltp_pages)
               for _ in range(int(wl.get("point_ops", 2_000)))]
        n = len(ids)
        return [AccessBlock.from_columns(
            ids, np.zeros(n, bool), np.zeros(n, bool),
            np.full(n, CACHE_LINE),
            np.full(n, float(wl.get("think_ns", 150.0))))]

    def readahead_scan():
        chunk = int(wl.get("chunk_pages", 16))
        ids = np.tile(np.arange(oltp_pages, oltp_pages + olap_pages, chunk),
                      int(wl.get("scan_repeats", 4)))
        n = len(ids)
        return [AccessBlock.from_columns(
            ids, np.zeros(n, bool), np.ones(n, bool),
            np.full(n, chunk * 4096), np.zeros(n))]

    point_names = [f"pt-{i}"
                   for i in range(int(_param(wl, "point_sessions", 2)))]
    sessions = [ClientSession(name, point_trace(scenario.seed + i))
                for i, name in enumerate(point_names)]
    sessions += [ClientSession(f"scan-{i}", readahead_scan())
                 for i in range(int(_param(wl, "scan_sessions", 0)))]
    report = engine.run_sessions(
        sessions, label=f"a7-x{expanders}",
        morsel_ops=int(scenario.policy.get("morsel_ops", 8)))
    return {
        "oltp_p95_ns": report.p95_for(point_names),
        "oltp_mean_ns": report.session(point_names[0]).mean_latency_ns,
        "wait_ns": report.wait_ns,
        "makespan_ns": report.makespan_ns,
        "ops": report.ops,
    }


# ---------------------------------------------------------------------------
# A8 — Pond's population at production scale (Sec 2.5, ref [31]).
# ---------------------------------------------------------------------------

@runner("a8.pondscale")
def a8_pondscale(scenario: Scenario, ctx: SimContext) -> dict:
    """E3 at serving scale: 10^4–10^6 churning tenants per cell.

    Generates a columnar tenant population
    (:class:`~repro.serving.TenantTable`), plays Poisson arrival /
    exponential-lifetime churn against an elastically scaled CXL page
    pool in virtual time, then folds every
    tenant's slowdown versus an all-DRAM run into exact mergeable
    histograms for two alternatives: pooled CXL and a scale-out
    partition where ``workload.remote_fraction`` of accesses cross an
    RDMA NIC. The gate asserts the Pond CDF shape (compute-bound
    tenants see <1% penalty, the memory-bound tail exists), the
    scale-out/CXL crossover along ``remote_fraction``, and that
    ``policy.shards`` never changes a byte.
    """
    topo, wl, pol = scenario.topology, scenario.workload, scenario.policy
    tenants = int(_param(wl, "tenants", 10_000))
    table = TenantTable.generate(
        tenants, num_ops=int(_param(wl, "num_ops", 2_000)),
        seed=scenario.seed)

    assign_churn(table, ChurnConfig(
        arrival_rate_per_s=float(_param(wl, "arrival_rate_per_s", 2_000.0)),
        mean_lifetime_s=float(_param(wl, "mean_lifetime_s", 0.5)),
        seed=scenario.seed + 1,
    ))
    scaler = ExpanderScaler(
        pages_per_expander=int(_param(topo, "pages_per_expander",
                                      4_194_304)),
        min_expanders=int(_param(topo, "min_expanders", 1)),
        max_expanders=int(_param(topo, "max_expanders", 4)),
        cooldown_ns=float(_param(topo, "cooldown_ms", 50.0)) * 1e6,
    )
    pool = PagePool(scaler.capacity_pages, ctx=ctx)
    churn = ChurnSimulator(
        table, pool, scaler=scaler,
        reclaim_ns=us(float(_param(pol, "reclaim_us", 200.0))),
    ).run()

    serving = run_serving(table, ServingConfig(
        shards=int(_param(pol, "shards", 1)),
        chunk_rows=int(_param(pol, "chunk_rows", 65_536)),
        rep_ops=int(_param(pol, "rep_ops", 2_000)),
        remote_fraction=float(_param(wl, "remote_fraction", 0.25)),
        through_switch=bool(topo.get("through_switch", False)),
        seed=scenario.seed,
    ))

    result = serving.metrics()
    result["churn"] = {
        "admitted": churn.admitted,
        "departed": churn.departed,
        "waited": churn.waited,
        "rejected": churn.rejected,
        "peak_queue": churn.peak_queue,
        "peak_leased_pages": churn.peak_leased_pages,
        "final_capacity_pages": churn.final_capacity_pages,
        "grows": churn.grows,
        "shrinks": churn.shrinks,
        "wait_p50_ns": churn.wait_quantile(0.50),
        "wait_p95_ns": churn.wait_quantile(0.95),
        "horizon_s": churn.horizon_ns / SECOND,
    }
    return result


# ---------------------------------------------------------------------------
# E8 — near-data processing on the CXL controller, Fig 3 (Sec 4).
# ---------------------------------------------------------------------------

def _ndp_path() -> AccessPath:
    return AccessPath(device=MemoryDevice(config.cxl_expander_ddr5()),
                      links=(Link(config.cxl_port()),))


@runner("e8.ndp_filter")
def e8_ndp_filter(scenario: Scenario, ctx: SimContext) -> dict:
    """A selection over a CXL-resident table at one selectivity: host
    pull, controller offload, and the coherent parallel split."""
    from ..core.ndp import NDPController

    pages = int(_param(scenario.workload, "pages"))
    selectivity = float(_param(scenario.workload, "selectivity"))
    controller = NDPController(_ndp_path())
    host = controller.host_filter_time(pages, selectivity)
    ndp = controller.offload_filter_time(pages, selectivity)
    parallel = controller.parallel_filter_time(
        pages, selectivity, controller.best_host_fraction(pages, selectivity))
    return {
        "host_ns": host.time_ns,
        "offload_ns": ndp.time_ns,
        "parallel_ns": parallel.time_ns,
        "speedup": host.time_ns / ndp.time_ns,
        "host_fabric_bytes": host.fabric_bytes,
        "offload_fabric_bytes": ndp.fabric_bytes,
    }


@runner("e8.ndp_operator")
def e8_ndp_operator(scenario: Scenario, ctx: SimContext) -> dict:
    """Where one Sec 4 operator candidate runs, and what it costs."""
    from ..core.ndp import NDPOperatorLibrary

    wl = scenario.workload
    placement = NDPOperatorLibrary(_ndp_path()).place(
        _param(wl, "operator"),
        int(_param(wl, "input_bytes")))
    return {
        "offload": int(placement.offload),
        "host_ns": placement.host_time_ns,
        "ndp_ns": placement.ndp_time_ns,
        "speedup": placement.speedup,
        "host_fabric_bytes": placement.host_fabric_bytes,
        "ndp_fabric_bytes": placement.ndp_fabric_bytes,
    }


@runner("e8.active_region")
def e8_active_region(scenario: Scenario, ctx: SimContext) -> dict:
    """Reading ``workload.read_bytes`` of a computed view: streamed
    through an active memory region vs materialized first (Fig 3b)."""
    from ..core.ndp import ActiveMemoryRegion

    wl = scenario.workload
    region = ActiveMemoryRegion(
        _ndp_path(), view_bytes=int(_param(wl, "view_bytes")),
        expansion=float(_param(wl, "expansion")))
    nbytes = int(_param(wl, "read_bytes"))
    return {
        "streaming_ns": region.streaming_read_time(nbytes),
        "materialized_ns": region.materialized_read_time(nbytes),
    }


# ---------------------------------------------------------------------------
# E9 — composable heterogeneous racks (Sec 5).
# ---------------------------------------------------------------------------

@runner("e9.rack")
def e9_rack(scenario: Scenario, ctx: SimContext) -> dict:
    """A mixed DB+ML operator stream on one rack design.

    ``topology.rack`` is ``fixed`` (devices bolted to 8 servers) or
    ``composable`` (every device pooled behind the fabric).
    """
    from ..core.hetero import ComposableRack, FixedServerRack, mixed_workload

    wl = scenario.workload
    rack = _param(scenario.topology, "rack")
    if rack == "fixed":
        design = FixedServerRack(num_servers=8, gpus_every=2, fpgas_every=2)
    elif rack == "composable":
        design = ComposableRack(gpus=4, fpgas=4, dpus=4, cpus=8)
    else:
        raise ConfigError("topology.rack must be fixed or composable;"
                          f" got {rack!r}")
    report = design.schedule(mixed_workload(
        num_tasks=int(_param(wl, "tasks")),
        ml_fraction=float(_param(wl, "ml_fraction")),
        compress_fraction=float(_param(wl, "compress_fraction")),
        seed=scenario.seed))
    busy = sum(report.per_class_busy.values())
    return {
        "mean_completion_ns": report.mean_completion_ns,
        "makespan_ns": report.makespan_ns,
        "gpu_busy_share": report.per_class_busy.get("gpu", 0.0) / busy
        if busy else 0.0,
        "unschedulable": report.unschedulable,
    }


# ---------------------------------------------------------------------------
# E10 — RAS vs software failure detection (Sec 2.6).
# ---------------------------------------------------------------------------

@runner("e10.ras")
def e10_ras(scenario: Scenario, ctx: SimContext) -> dict:
    """Injected expander failures seen by a hardware RAS monitor and
    by heartbeat timeouts, plus each path's annual failure odds."""
    from ..sim.events import Simulator
    from ..sim.ras import (CXL_POOL_PATH, REMOTE_SERVER_PATH,
                           FailureInjector, RASMonitor, TimeoutMonitor,
                           path_failure_probability)
    from ..units import ms

    sim = Simulator()
    injector = FailureInjector(sim)
    ras, timeout = RASMonitor(), TimeoutMonitor()
    injector.attach(ras)
    injector.attach(timeout)
    rng = random.Random(scenario.seed)
    for i in range(int(_param(scenario.workload, "failures"))):
        injector.fail_at(MemoryDevice(config.cxl_expander_ddr5(),
                                      name=f"expander{i}"),
                         ms(rng.uniform(1.0, 1_000.0)))
    sim.run()

    def mean_delay(monitor) -> float:
        delays = [r.detection_delay_ns for r in monitor.records]
        return sum(delays) / len(delays)

    return {
        "ras_mean_ns": mean_delay(ras),
        "timeout_mean_ns": mean_delay(timeout),
        "pool_path_components": len(CXL_POOL_PATH),
        "remote_path_components": len(REMOTE_SERVER_PATH),
        "pool_path_p_fail": path_failure_probability(CXL_POOL_PATH),
        "remote_path_p_fail": path_failure_probability(REMOTE_SERVER_PATH),
    }


# ---------------------------------------------------------------------------
# F1 — the coherency domain, Fig 1(a) vs 1(b) (Sec 2.1-2.2).
# ---------------------------------------------------------------------------

@runner("f1.coherency_domain")
def f1_coherency_domain(scenario: Scenario, ctx: SimContext) -> dict:
    """A device reading lines the host keeps writing, at
    ``workload.host_write_prob``: through a PCIe DMA snapshot
    (Fig 1a) and as a coherent CXL cache (Fig 1b)."""
    from ..sim.cache import AgentCache
    from ..sim.coherence import CoherenceDirectory, NonCoherentCopy
    from ..units import KIB

    wl = scenario.workload
    lines = int(_param(wl, "lines"))
    ops = int(_param(wl, "ops"))
    write_prob = float(_param(wl, "host_write_prob"))

    rng = random.Random(scenario.seed)
    copy = NonCoherentCopy()
    copy.dma_copy(list(range(lines)))
    for _ in range(ops):
        line = rng.randrange(lines)
        if rng.random() < write_prob:
            copy.host_write(line)
        else:
            copy.device_read(line)
    reads = copy.fresh_reads + copy.stale_reads

    rng = random.Random(scenario.seed)
    directory = CoherenceDirectory()
    host = AgentCache(directory, capacity_bytes=64 * KIB)
    device = AgentCache(directory, capacity_bytes=64 * KIB)
    for _ in range(ops):
        address = rng.randrange(lines) * 64
        if rng.random() < write_prob:
            host.store(address)
        else:
            device.load(address)
    return {
        "pcie_stale_share": copy.stale_reads / reads if reads else 0.0,
        "cxl_invalidations_per_op": directory.stats.invalidations_sent / ops,
    }


# ---------------------------------------------------------------------------
# A1-A4 — ablations of the design choices DESIGN.md calls out.
# ---------------------------------------------------------------------------

def _htap_blocks(oltp_pages: int, seed: int):
    """Zipfian OLTP point traffic interleaved 3:1 with a one-shot scan."""
    from ..workloads import interleave, scan_blocks

    oltp = ycsb_blocks(YCSBConfig(mix="B", num_pages=oltp_pages,
                                  num_ops=12_000, theta=0.99, think_ns=0,
                                  seed=seed))
    olap = scan_blocks(first_page=oltp_pages, num_pages=4_000, repeats=1)
    return interleave(oltp, olap, weights=[3, 1])


@runner("a1.scan_resistance")
def a1_scan_resistance(scenario: Scenario, ctx: SimContext) -> dict:
    """OLTP pages the engine keeps in DRAM through a scan flood, with
    its tracker and admission scan-aware or scan-blind
    (``policy.scan_aware``)."""
    from ..core.placement import DbCostPolicy
    from ..core.temperature import ExactTracker

    oltp_pages = int(_param(scenario.workload, "oltp_pages"))
    aware = bool(_param(scenario.policy, "scan_aware"))
    engine = ScaleUpEngine.build(
        dram_pages=1_000, cxl_pages=8_000, with_storage=False,
        placement=DbCostPolicy(
            rebalance_interval=2_000, scan_admit_slow=aware,
            tracker=ExactTracker(scan_weight=0.1 if aware else 1.0)))
    engine.run(_htap_blocks(oltp_pages, scenario.seed))
    return {"oltp_pages_in_dram": sum(
        1 for p in engine.pool.resident_in(0) if p < oltp_pages)}


@runner("a2.replacement")
def a2_replacement(scenario: Scenario, ctx: SimContext) -> dict:
    """Hit rate of one replacement policy (``policy.replacement``) on
    a single full tier: Zipfian point traffic polluted by a scan."""
    from ..core.replacement import make_policy

    wl = scenario.workload
    oltp_pages = int(_param(wl, "oltp_pages"))
    name = _param(scenario.policy, "replacement")
    dram = Tier(name="dram",
                path=AccessPath(device=MemoryDevice(config.local_ddr5())),
                capacity_pages=1_000, policy=make_policy(name))
    engine = ScaleUpEngine(
        TieredBufferPool(tiers=[dram], placement=StaticPolicy(lambda _p: 0)),
        name=name)
    engine.warm_with(ycsb_blocks(YCSBConfig(
        mix="C", num_pages=oltp_pages, num_ops=4_000, theta=0.99,
        think_ns=0, seed=int(_param(wl, "warm_seed")))))
    return {"hit_rate": engine.run(
        _htap_blocks(oltp_pages, scenario.seed)).hit_rate}


@runner("a3.prefetch")
def a3_prefetch(scenario: Scenario, ctx: SimContext) -> dict:
    """A page scan over CXL, streamed (prefetch amortizes the latency)
    and then latency-bound, on the same populated pool."""
    from ..units import PAGE_SIZE

    pages = int(_param(scenario.workload, "pages"))
    pool = ScaleUpEngine.build(dram_pages=1, cxl_pages=pages + 100,
                               with_storage=False).pool
    for page in range(pages):
        pool.access(page, is_scan=True)  # populate the CXL tier
    streamed = sum(pool.access(page, nbytes=PAGE_SIZE, is_scan=True)
                   for page in range(pages))
    latency_bound = sum(pool.access(page, nbytes=PAGE_SIZE, is_scan=False)
                        for page in range(pages))
    return {"streamed_ns": streamed, "latency_bound_ns": latency_bound}


@runner("a4.switch_depth")
def a4_switch_depth(scenario: Scenario, ctx: SimContext) -> dict:
    """CXL load latency behind ``topology.switch_hops`` switches, and
    what the switches add over direct attach."""

    def load_ns(hops: int) -> float:
        return AccessPath(
            device=MemoryDevice(config.cxl_expander_ddr5()),
            links=(Link(config.cxl_port()),
                   *(Link(config.cxl_switch_hop()) for _ in range(hops))),
        ).read_latency_ns()

    latency = load_ns(int(_param(scenario.topology, "switch_hops")))
    return {"load_ns": latency, "over_direct_ns": latency - load_ns(0)}


# ---------------------------------------------------------------------------
# A5-A11 — the research-question experiments.
# ---------------------------------------------------------------------------

@runner("a5.index_placement")
def a5_index_placement(scenario: Scenario, ctx: SimContext) -> dict:
    """B+tree point lookups with all nodes in DRAM, inner nodes in DRAM
    and leaves on CXL (hybrid), or all nodes on CXL.

    ``hybrid_penalty_share`` is the hybrid's lookup penalty over
    all-DRAM as a share of the all-CXL penalty.
    """
    from ..core.btree import TieredBTree

    wl = scenario.workload
    keys = int(_param(wl, "keys"))
    probes = int(_param(wl, "probes"))
    items = [(key, key) for key in range(keys)]

    def make_pool(classifier):
        return TieredBufferPool(tiers=[
            Tier("dram", AccessPath(device=MemoryDevice(config.local_ddr5())),
                 8_192),
            Tier("cxl", AccessPath(
                device=MemoryDevice(config.cxl_expander_ddr5()),
                links=(Link(config.cxl_port()),)), 8_192),
        ], placement=StaticPolicy(classifier))

    shape = TieredBTree.bulk_build(make_pool(lambda _p: 1), items,
                                   first_page_id=0)
    mean_ns, dram_pages = {}, {}
    for name, classifier in (("all_dram", lambda _p: 0),
                             ("hybrid", shape.page_classifier(0, 1)),
                             ("all_cxl", lambda _p: 1)):
        pool = make_pool(classifier)
        tree = TieredBTree.bulk_build(pool, items, first_page_id=0)
        for key in range(0, keys, 61):  # warm every page
            tree.lookup(key)
        start = pool.clock.now
        for key in range(0, keys, keys // probes):
            tree.lookup(key)
        mean_ns[name] = (pool.clock.now - start) / probes
        dram_pages[name] = pool.tier_residents(0)
    return {
        "mean_lookup_ns": mean_ns,
        "dram_pages": dram_pages,
        "hybrid_penalty_share": (mean_ns["hybrid"] - mean_ns["all_dram"])
        / (mean_ns["all_cxl"] - mean_ns["all_dram"]),
    }


@runner("a6.autoscale")
def a6_autoscale(scenario: Scenario, ctx: SimContext) -> dict:
    """A bursty query stream on one fleet (``policy.mode``): ``fixed``
    at peak size, or a ``warm`` (pooled buffer) or ``cold`` (local
    buffer) autoscaler."""
    from ..core.autoscale import Autoscaler, bursty_jobs

    pol = scenario.policy
    mode = _param(pol, "mode")
    workers = {"max_workers": int(_param(pol, "max_workers"))}
    if mode != "fixed":
        workers["min_workers"] = int(_param(pol, "min_workers"))
    report = Autoscaler(mode=mode, **workers).run(
        bursty_jobs(seed=scenario.seed))
    return {
        "p95_wait_ns": report.p95_wait_ns,
        "mean_wait_ns": report.mean_wait_ns,
        "engine_seconds": report.engine_seconds,
        "spawns": report.spawns,
        "peak_workers": report.peak_workers,
    }


@runner("a7.oltp_mechanisms")
def a7_oltp_mechanisms(scenario: Scenario, ctx: SimContext) -> dict:
    """Three OLTP mechanisms on the new hierarchy: group-commit log
    backends, timestamp oracles, and failover downtime."""
    from ..core.failover import FailoverOrchestrator
    from ..core.timestamps import compare_oracles
    from ..core.wal import (BatteryDRAMLogBackend, CXLNVMLogBackend,
                            NVMeLogBackend, RDMAReplicatedLogBackend,
                            WriteAheadLog)
    from ..storage.disk import StorageDevice

    wl = scenario.workload
    record = int(_param(wl, "record_bytes"))
    commit_ns, commit_tps = {}, {}
    for backend in (NVMeLogBackend(StorageDevice()),
                    RDMAReplicatedLogBackend.build(replicas=2),
                    CXLNVMLogBackend.build(), BatteryDRAMLogBackend.build()):
        log = WriteAheadLog(backend, group_size=8)
        now = 0.0
        for i in range(int(_param(wl, "txns"))):
            now = i * 500.0  # a txn every 500 ns
            log.append(record, now)
        log.flush(now)
        commit_ns[backend.name] = log.commit_latency.mean
        commit_tps[backend.name] = log.throughput_bound_tps(record)

    timestamp_ns = {name: cost for name, cost, _bound in compare_oracles(
        hosts=4, draws=2_000, rpc_batch=1).rows}
    pooled, classic, _ratio = FailoverOrchestrator().compare()
    failover = {
        outcome.name: {
            "detection_ns": outcome.detection_ns,
            "state_recovery_ns": outcome.state_recovery_ns,
            "log_replay_ns": outcome.log_replay_ns,
            "total_ns": outcome.total_downtime_ns,
            "detect_and_recover_ns":
                outcome.detection_ns + outcome.state_recovery_ns,
        } for outcome in (classic, pooled)}
    return {"commit_ns": commit_ns, "commit_tps": commit_tps,
            "timestamp_ns": timestamp_ns, "failover": failover}


@runner("a8.morsel_scheduling")
def a8_morsel_scheduling(scenario: Scenario, ctx: SimContext) -> dict:
    """Four skewed queries on a 4-host x 8-thread rack under one
    scheduler: ``static`` partitions, or a shared coherent morsel
    queue served ``fifo`` or ``fair``."""
    from ..core.morsel import RackScheduler, skewed_queries

    scheduler = RackScheduler(hosts=4, threads_per_host=8)
    queries = skewed_queries(num_queries=4, morsels_per_query=400,
                             seed=scenario.seed)
    kind = _param(scenario.policy, "scheduler")
    if kind == "static":
        outcome = scheduler.run_static(queries)
    elif kind in ("fifo", "fair"):
        outcome = scheduler.run_shared_queue(queries, policy=kind)
    else:
        raise ConfigError("policy.scheduler must be static, fifo or fair;"
                          f" got {kind!r}")
    return {
        "makespan_ns": outcome.makespan_ns,
        "mean_completion_ns": outcome.mean_completion_ns,
        "idle_ns": outcome.idle_ns,
        "queue_overhead_ns": outcome.queue_overhead_ns,
    }


#: A9's expanders: the config preset each is built from, and a
#: representative street price in $/GiB.
_EXPANDERS = {
    "ddr5-expander": (config.cxl_expander_ddr5, 4.0),
    "ddr4-recycled": (config.cxl_expander_ddr4_recycled, 1.5),
    "hbm-expander": (config.cxl_expander_hbm, 25.0),
}


@runner("a9.memory_diversity")
def a9_memory_diversity(scenario: Scenario, ctx: SimContext) -> dict:
    """Point lookups and scans with the overflow tier built from one
    expander (``topology.expander``), and both per dollar of 64 GiB."""
    from ..workloads import scan_blocks

    name = _param(scenario.topology, "expander")
    if name not in _EXPANDERS:
        raise ConfigError(f"topology.expander must be one of"
                          f" {sorted(_EXPANDERS)}; got {name!r}")
    preset, dollars_per_gib = _EXPANDERS[name]
    spec = preset()
    pages = int(_param(scenario.workload, "pages"))

    def points():
        return ycsb_blocks(YCSBConfig(mix="B", num_pages=pages,
                                      num_ops=20_000, theta=0.99,
                                      think_ns=0, seed=scenario.seed))

    def scans():
        return scan_blocks(first_page=0, num_pages=pages, repeats=4,
                           think_ns=0)

    point_engine = ScaleUpEngine.build(dram_pages=400, cxl_pages=pages + 8,
                                       cxl_spec=spec, with_storage=False)
    point_engine.warm_with(points())
    point = point_engine.run(points(), label=name)
    scan_engine = ScaleUpEngine.build(
        dram_pages=400, cxl_pages=pages + 8, cxl_spec=spec,
        placement=StaticPolicy(lambda _p: 1), with_storage=False)
    scan_engine.warm_with(scans())
    scan = scan_engine.run(scans(), label=name)
    dollars = dollars_per_gib * 64
    return {
        "point_ns": point.total_ns,
        "scan_ns": scan.total_ns,
        "point_ops_per_s_per_dollar": point.throughput_ops_per_s / dollars,
        "scan_mb_per_s_per_dollar":
            pages * 4 * 4096 / scan.total_ns * 1e3 / dollars,
    }


@runner("a11.columnar")
def a11_columnar(scenario: Scenario, ctx: SimContext) -> dict:
    """A column scan and a row scan of ``workload.projection``, warm,
    with every page in DRAM or on CXL (``topology.memory``)."""
    from ..query.columnar import ColumnScan, ColumnTable
    from ..query.operators import TableScan, collect
    from ..query.schema import Column, ColumnType, Schema
    from ..query.table import Table
    from ..storage.disk import StorageDevice
    from ..storage.file import PageFile

    schema = Schema([
        Column("id"), Column("a", ColumnType.FLOAT),
        Column("b", ColumnType.FLOAT), Column("c", ColumnType.STR),
        Column("d", ColumnType.STR), Column("e", ColumnType.DATE),
    ])
    projection = list(_param(scenario.workload, "projection"))
    memory = _param(scenario.topology, "memory")
    if memory not in ("dram", "cxl"):
        raise ConfigError(f"topology.memory must be dram or cxl; got {memory!r}")
    pf = PageFile(StorageDevice())
    col = ColumnTable("col", schema, pf)
    row = Table("row", schema, pf)
    data = [(i, float(i), float(i) * 2, f"c{i}", f"d{i}", i % 365)
            for i in range(int(_param(scenario.workload, "rows")))]
    col.bulk_load(data)
    row.bulk_load(data)
    pages = col.total_pages + row.page_count + 16
    if memory == "cxl":
        engine = ScaleUpEngine.build(dram_pages=1, cxl_pages=pages,
                                     placement=StaticPolicy(lambda _p: 1),
                                     backing=pf)
    else:
        engine = ScaleUpEngine.build(dram_pages=pages, backing=pf)
    collect(ColumnScan(col, schema.names), engine)  # warm everything
    collect(TableScan(row), engine)
    _rows, col_ns = collect(ColumnScan(col, projection), engine)
    _rows, row_ns = collect(TableScan(row, projection=projection), engine)
    return {"column_scan_ns": col_ns, "row_scan_ns": row_ns}


# ---------------------------------------------------------------------------
# debug.* — executor-facing kernels used by the harness's own tests.
# ---------------------------------------------------------------------------

@runner("debug.echo")
def debug_echo(scenario: Scenario, ctx: SimContext) -> dict:
    """Echo the cell's parameters and seed (determinism probe)."""
    return {
        "seed": scenario.seed,
        "topology": dict(scenario.topology),
        "workload": dict(scenario.workload),
        "policy": dict(scenario.policy),
    }


@runner("debug.fail")
def debug_fail(scenario: Scenario, ctx: SimContext) -> dict:
    """Raise: exercises the failed-cell path."""
    raise SimulationError("deliberate harness test failure")


@runner("debug.crash")
def debug_crash(scenario: Scenario, ctx: SimContext) -> dict:
    """Kill the worker process without a result (crash isolation)."""
    os._exit(int(scenario.workload.get("exit_code", 13)))


@runner("debug.sleep")
def debug_sleep(scenario: Scenario, ctx: SimContext) -> dict:
    """Sleep in wall time (per-cell timeout path)."""
    seconds = float(scenario.workload.get("seconds", 60.0))
    time.sleep(seconds)
    return {"slept_s": seconds}
