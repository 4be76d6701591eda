"""Experiment kernels runnable from a :class:`Scenario`.

Each kernel is a function ``(scenario, ctx) -> dict`` registered under
a dotted name; :func:`run_scenario` looks the kernel up, builds a fresh
:class:`~repro.sim.context.SimContext` for the cell (the PR-1 one-clock
invariant: one context, one clock, per simulated configuration) and
validates that the result is a flat JSON-serializable mapping.

These are the sweep-native ports of the ``benchmarks/bench_*.py``
experiments: where a benchmark script loops over a hand-rolled grid
and *compares* configurations inline, a kernel simulates exactly one
grid cell and returns raw metrics — comparisons ("who wins", ratio
bounds, crossover positions) move into baseline gate files
(:mod:`repro.harness.gate`).

``debug.*`` kernels exercise the executor itself (crash isolation,
timeouts, determinism) and are intentionally cheap.
"""

from __future__ import annotations

import os
import random
import time
from typing import Any, Callable, Mapping

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
from ..sim.memory import MemoryDevice
from ..sim.numa import NUMASystem
from ..sim.rdma import RDMAFabric
from ..units import CACHE_LINE, MIB, SECOND, us
from ..workloads.traces import Access
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


def _param(group: Mapping[str, Any], key: str, default: Any) -> Any:
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
    total = 0.0
    for _ in range(accesses):
        total += path.read_time(CACHE_LINE)
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
        return [Access(page_id=rng.randrange(oltp_pages),
                       think_ns=float(wl.get("think_ns", 150.0)))
                for _ in range(int(wl.get("point_ops", 2_000)))]

    def readahead_scan():
        chunk = int(wl.get("chunk_pages", 16))
        out = []
        for _ in range(int(wl.get("scan_repeats", 4))):
            for start in range(0, olap_pages, chunk):
                out.append(Access(
                    page_id=oltp_pages + start, is_scan=True,
                    nbytes=chunk * 4096, think_ns=0.0))
        return out

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
