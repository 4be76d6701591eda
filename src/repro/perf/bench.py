"""Microbenchmark definitions for ``repro perfbench``.

Each microbenchmark times one hot path of the simulator in two lanes
and requires both to produce **byte-identical results**:

* Engine benches (``scan``, ``oltp``, ``htap``, ``htap-blocks``) build
  a fresh engine, warm the pool, and drive one workload through
  ``engine.run``. ``fast`` is the fast lane (scalar traces packed
  into blocks, ``TieredBufferPool.access_block`` + precomputed
  latency tables); ``compat`` is the
  scalar reference lane that recomputes per-access arithmetic the way
  the pre-fast-lane simulator did. The digest covers every simulated
  quantity of the run.
* The trace-generation bench (``trace-gen``) times workload
  *generation*: the columnar block emitters (``fast``) against the
  scalar per-``Access`` generators (``compat``). The digest covers the
  elementwise content of the generated trace.
* The tenant-population bench (``tenant-gen``) times serving-scale
  population generation: the columnar SoA draw into a ``TenantTable``
  (``fast``) against object-per-tenant materialisation (``compat``).
  The digest covers the raw bytes of every tenant attribute column.

Traces for engine benches are materialised before the timed region so
the measurement captures the simulator hot path, not the generator.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .. import config
from ..core.buffer import Tier, TieredBufferPool
from ..core.engine import EngineReport, ScaleUpEngine
from ..core.placement import OSPagingPolicy, StaticPolicy
from ..core.sessions import ClientSession, SessionRunReport
from ..errors import ConfigError
from ..sim.context import SimContext
from ..sim.interconnect import AccessPath, Link
from ..sim.memory import MemoryDevice
from ..units import PAGE_SIZE
from ..workloads.scans import (
    mixed_htap_blocks,
    mixed_htap_trace,
    scan_blocks,
    scan_trace,
)
from ..serving.tenants import TenantTable
from ..workloads.cloudmix import generate_population
from ..workloads.traces import Access, AccessBlock
from ..workloads.ycsb import YCSBConfig, ycsb_blocks, ycsb_trace


@dataclass(frozen=True, slots=True)
class BenchSpec:
    """A named wall-clock microbenchmark with its speedup floor.

    ``runner(fast, scale)`` executes one lane and returns
    ``(wall_seconds, digest)``; the digest must agree across lanes.
    """

    name: str
    description: str
    min_speedup: float
    runner: Callable[[bool, float], tuple[float, str]]


def _set_lane(engine: ScaleUpEngine, fast: bool) -> None:
    """Select the execution lane on *engine*'s pool.

    Tolerates pools that predate the fast lane (everything is then the
    scalar path) so the harness can record pre-change timings.
    """
    pool = engine.pool
    if hasattr(pool, "set_fast_lane"):
        pool.set_fast_lane(fast)


def _digest_report(engine: ScaleUpEngine, report: EngineReport) -> str:
    """A content digest over every simulated quantity the run produced.

    Floats are serialised with ``repr`` so the digest is sensitive to
    the last ulp — the byte-identity contract, not an approximation.
    """
    stats = engine.pool.stats
    payload = {
        "total_ns": repr(report.total_ns),
        "demand_ns": repr(report.demand_ns),
        "think_ns": repr(report.think_ns),
        "ops": report.ops,
        "misses": report.misses,
        "migrations": report.migrations,
        "hit_rate": repr(report.hit_rate),
        "tier_hit_rates": [repr(rate) for rate in report.tier_hit_rates],
        "clock_now": repr(engine.pool.clock.now),
        "pool": {
            "accesses": stats.accesses,
            "misses": stats.misses,
            "writebacks": stats.writebacks,
            "migrations": stats.migrations,
            "demand_time_ns": repr(stats.demand_time_ns),
            "fault_time_ns": repr(stats.fault_time_ns),
            "migration_time_ns": repr(stats.migration_time_ns),
            "per_tier": [tier.snapshot() for tier in stats.per_tier],
        },
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _digest_trace(page_id, write, is_scan, nbytes, think_ns) -> str:
    """Digest the elementwise content of a trace from its columns."""
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(page_id, np.int64).tobytes())
    digest.update(np.ascontiguousarray(write, np.bool_).tobytes())
    digest.update(np.ascontiguousarray(is_scan, np.bool_).tobytes())
    digest.update(np.ascontiguousarray(nbytes, np.int64).tobytes())
    digest.update(np.ascontiguousarray(think_ns, np.float64).tobytes())
    return digest.hexdigest()


def _digest_blocks(blocks: list[AccessBlock]) -> str:
    return _digest_trace(
        np.concatenate([b.page_id for b in blocks]),
        np.concatenate([b.write for b in blocks]),
        np.concatenate([b.is_scan for b in blocks]),
        np.concatenate([b.nbytes for b in blocks]),
        np.concatenate([b.think_ns for b in blocks]),
    )


def _digest_accesses(accesses: list) -> str:
    n = len(accesses)
    return _digest_trace(
        np.fromiter((a.page_id for a in accesses), np.int64, n),
        np.fromiter((a.write for a in accesses), np.bool_, n),
        np.fromiter((a.is_scan for a in accesses), np.bool_, n),
        np.fromiter((a.nbytes for a in accesses), np.int64, n),
        np.fromiter((a.think_ns for a in accesses), np.float64, n),
    )


# -- engine microbenchmark builders ------------------------------------------
#
# Builders return ``(engine, trace)`` with the pool already warmed; the
# runner times only ``engine.run(trace)``. ``scale`` shrinks the
# workload for tests (scale < 1) without changing its shape.


def _scan_builder(scale: float) -> tuple[ScaleUpEngine, list]:
    """Sequential scan over a CXL-resident table: the E5/A8 shape.

    After warming, every access is a tier hit, so the run measures the
    pure hit-path cost — where the block lane resolves whole columnar
    runs against the residency table in a handful of array ops. The
    trace is the block twin of the scalar scan (elementwise
    identical), so the digest matches the object-trace runs exactly.
    """
    pages = max(64, int(3000 * scale))
    repeats = 8
    engine = ScaleUpEngine.build(
        dram_pages=max(32, pages // 6),
        cxl_pages=pages + pages // 2,
        name="perf-scan",
    )
    engine.preload(np.arange(pages, dtype=np.int64),
                   nbytes=PAGE_SIZE, is_scan=True)
    trace = list(scan_blocks(0, pages, repeats=repeats))
    return engine, trace


def _oltp_builder(scale: float) -> tuple[ScaleUpEngine, list]:
    """Zipfian YCSB-B point traffic over a DRAM+CXL split: the E7 shape.

    The working set fits across DRAM + CXL — the paper's capacity
    thesis — so after warming the run is hit-dominated: short mixed
    read/write runs, live migrations from the cost-based placement
    policy, and frequent shape changes at write boundaries. The trace
    is the columnar twin of the scalar YCSB-B stream, driving the
    block lane's lean short-segment walk.
    """
    pages = max(64, int(3000 * scale))
    ops = max(256, int(30_000 * scale))
    engine = ScaleUpEngine.build(
        dram_pages=max(16, pages // 5),
        cxl_pages=pages,
        name="perf-oltp",
    )
    # Fault every page in, then heat the Zipf head so placement has
    # realistic temperatures (and live promotions) during the run.
    engine.preload(np.arange(pages, dtype=np.int64),
                   nbytes=PAGE_SIZE, is_scan=True)
    engine.warm_with(ycsb_trace(YCSBConfig(
        mix="C", num_pages=pages, num_ops=min(ops, 4 * pages), seed=7,
    )))
    trace = list(ycsb_blocks(YCSBConfig(
        mix="B", num_pages=pages, num_ops=ops, seed=11,
    )))
    return engine, trace


def _htap_params(scale: float) -> tuple[int, int, dict]:
    oltp_pages = max(64, int(1500 * scale))
    olap_pages = max(64, int(4000 * scale))
    params = dict(
        oltp_pages=oltp_pages,
        olap_pages=olap_pages,
        oltp_ops=max(256, int(8_000 * scale)),
        olap_repeats=2,
        oltp_per_olap=1,
        seed=23,
    )
    return oltp_pages, olap_pages, params


def _htap_engine(scale: float) -> tuple[ScaleUpEngine, dict]:
    oltp_pages, olap_pages, params = _htap_params(scale)
    engine = ScaleUpEngine.build(
        dram_pages=max(32, oltp_pages),
        cxl_pages=olap_pages + olap_pages // 2,
        name="perf-htap",
    )
    engine.preload(np.arange(oltp_pages + olap_pages, dtype=np.int64),
                   nbytes=PAGE_SIZE, is_scan=True)
    return engine, params


def _htap_builder(scale: float) -> tuple[ScaleUpEngine, list]:
    """Interleaved OLTP + scan traffic as scalar ``Access`` objects.

    With ``oltp_per_olap=1`` the access shape changes on *every*
    operation, so each coalesced run has length one and the batch lane
    degenerates to its scalar fallback — this bench guards the floor
    of the object-trace path (timing tables only), not its ceiling.
    """
    engine, params = _htap_engine(scale)
    trace = list(mixed_htap_trace(**params))
    return engine, trace


def _htap_blocks_builder(scale: float) -> tuple[ScaleUpEngine, list]:
    """The same per-op alternating HTAP mix, delivered as blocks.

    This is the coalescer worst case attacked by the columnar
    pipeline: the vectorised boundary scan replaces the per-access
    Python peek, and length-one runs route straight to the pool's
    table-based scalar access without object churn.
    """
    engine, params = _htap_engine(scale)
    trace = list(mixed_htap_blocks(**params))
    return engine, trace


def _fault_storm_builder(scale: float) -> tuple[ScaleUpEngine, list]:
    """Cold pool, repeated over-capacity scans, plus a write-heavy tail.

    Every parameter conspires to make faults the dominant cost: the
    pool starts empty (no ``warm_with``), the scan set is ~9x pool
    capacity so each repeat re-faults everything through eviction and
    demotion cascades, and the YCSB-A tail mixes zipfian writes over
    the same cold range so dirty-writeback and short-run miss paths
    stay exercised.  The fault lane resolves whole miss runs in array
    ops (bulk backing reads, ``choose_admit_tiers``, ``victim_batch``
    cascades, array installs); the compat lane walks the same faults
    one page at a time.
    """
    pages = max(256, int(40_000 * scale))
    engine = ScaleUpEngine.build(
        dram_pages=max(64, int(512 * scale)),
        cxl_pages=max(256, int(4_096 * scale)),
        placement=OSPagingPolicy(),
        name="perf-fault-storm",
    )
    trace = list(scan_blocks(0, pages, repeats=3))
    trace += list(ycsb_blocks(YCSBConfig(
        mix="A",
        num_pages=pages,
        num_ops=max(64, int(8_000 * scale)),
        seed=13,
    )))
    return engine, trace


def _engine_runner(
    builder: Callable[[float], tuple[ScaleUpEngine, list]],
    label: str,
) -> Callable[[bool, float], tuple[float, str]]:
    def run(fast: bool, scale: float) -> tuple[float, str]:
        engine, trace = builder(scale)
        _set_lane(engine, fast)
        start = time.perf_counter()
        report = engine.run(trace, label=f"perf:{label}")
        wall_s = time.perf_counter() - start
        return wall_s, _digest_report(engine, report)
    return run


# -- concurrent-session microbenchmark ---------------------------------------


def _digest_session_report(engine: ScaleUpEngine,
                           report: SessionRunReport) -> str:
    """Digest every simulated quantity of a concurrent session run.

    Covers the run report (per-session demand/think/wait/cursor floats,
    name-keyed and name-sorted, so the digest is permutation-invariant
    by construction) and the pool's accumulated state.
    """
    stats = engine.pool.stats
    payload = {
        "makespan_ns": repr(report.makespan_ns),
        "clock_now": repr(engine.pool.clock.now),
        "policy": report.policy,
        "sessions": {
            name: {
                "ops": session.ops,
                "demand_ns": repr(session.demand_ns),
                "think_ns": repr(session.think_ns),
                "wait_ns": repr(session.wait_ns),
                "end_ns": repr(session.end_ns),
                "misses": session.misses,
                "migrations": session.migrations,
            }
            for name, session in sorted(report.sessions.items())
        },
        "pool": {
            "accesses": stats.accesses,
            "misses": stats.misses,
            "writebacks": stats.writebacks,
            "migrations": stats.migrations,
            "demand_time_ns": repr(stats.demand_time_ns),
            "fault_time_ns": repr(stats.fault_time_ns),
            "migration_time_ns": repr(stats.migration_time_ns),
            "per_tier": [tier.snapshot() for tier in stats.per_tier],
        },
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _contended_builder(scale: float) -> tuple[ScaleUpEngine, list]:
    """Eight readahead scan sessions sharing one expander.

    Every session streams a disjoint CXL-resident range with 64 KiB
    requests, so the run is bandwidth-bound and every quantum both
    waits on and re-occupies the shared link/device queues — the
    session scheduler's hot path.
    """
    num_sessions = 8
    pages_per = max(64, int(4_000 * scale))
    repeats = 8
    total = num_sessions * pages_per
    engine = ScaleUpEngine.build(
        dram_pages=1, cxl_pages=total + 16,
        placement=StaticPolicy(lambda _p: 1),
        name="perf-contended",
    )
    engine.preload(np.arange(total, dtype=np.int64),
                   nbytes=PAGE_SIZE, is_scan=True)
    chunk = 16
    sessions = []
    for index in range(num_sessions):
        base = index * pages_per
        trace = [
            Access(page_id=base + start, is_scan=True,
                   nbytes=chunk * 4096, think_ns=0.0)
            for _ in range(repeats)
            for start in range(0, pages_per, chunk)
        ]
        sessions.append(ClientSession(f"scan-{index}", trace))
    return engine, sessions


def _two_expander_engine(cxl_pages: int, stripe_pages: int) -> ScaleUpEngine:
    """A DRAM stub plus two independently-linked CXL expanders.

    Pages stripe across the expanders in *stripe_pages* extents, so
    half the sessions' traffic folds on each device queue and port —
    contention on two resource sets instead of one. Extent (not page)
    granularity keeps a session's runs on one tier, matching how a
    partitioned engine would actually place per-tenant heaps.
    """
    ctx = SimContext.ambient()
    dram = MemoryDevice(config.local_ddr5(), name="oc-dram", ctx=ctx)
    tiers = [Tier(name="dram", path=AccessPath(device=dram),
                  capacity_pages=1)]
    for i in range(2):
        dev = MemoryDevice(config.cxl_expander_ddr5(),
                           name=f"oc-cxl{i}", ctx=ctx)
        port = Link(config.cxl_port(), name=f"oc-port{i}", ctx=ctx)
        tiers.append(Tier(name=f"cxl{i}",
                          path=AccessPath(device=dev, links=(port,)),
                          capacity_pages=cxl_pages))
    pool = TieredBufferPool(
        tiers=tiers, backing=None,
        placement=StaticPolicy(lambda p: 1 + ((p // stripe_pages) & 1)),
        page_size=PAGE_SIZE, ctx=ctx)
    return ScaleUpEngine(pool, name="perf-oltp-contended")


def _oltp_contended_builder(scale: float) -> tuple[ScaleUpEngine, list]:
    """Eight YCSB-B point-traffic sessions over two shared expanders.

    The transactional twin of the scan-contended bench: short mixed
    read/write runs (write boundaries cut segments every ~20 ops),
    per-op think time, and zipfian skew within each session's disjoint
    page range. Exercises the session scheduler's short-segment and
    think-bearing paths rather than the long pure-scan ladders.
    """
    num_sessions = 8
    pages_per = max(128, int(2_000 * scale))
    ops_per = max(256, int(2_200 * scale))
    total = num_sessions * pages_per
    engine = _two_expander_engine(total + 16, pages_per)
    engine.preload(np.arange(total, dtype=np.int64),
                   nbytes=PAGE_SIZE, is_scan=True)
    sessions = []
    for index in range(num_sessions):
        base = index * pages_per
        shifted = [
            Access(a.page_id + base, a.write, a.is_scan, a.nbytes,
                   a.think_ns)
            for a in ycsb_trace(YCSBConfig(
                mix="B", num_pages=pages_per, num_ops=ops_per,
                theta=0.9, seed=900 + index))
        ]
        sessions.append(ClientSession(f"ycsb-{index}", shifted))
    return engine, sessions


def _oltp_contended_runner(fast: bool, scale: float) -> tuple[float, str]:
    engine, sessions = _oltp_contended_builder(scale)
    _set_lane(engine, fast)
    start = time.perf_counter()
    report = engine.run_sessions(sessions, label="perf:oltp-contended",
                                 morsel_ops=64)
    wall_s = time.perf_counter() - start
    return wall_s, _digest_session_report(engine, report)


def _contended_runner(fast: bool, scale: float) -> tuple[float, str]:
    engine, sessions = _contended_builder(scale)
    _set_lane(engine, fast)
    start = time.perf_counter()
    # A 128-access quantum keeps scheduling fine-grained (each session
    # runs thousands of accesses) while letting the batched lane
    # amortise per-access bookkeeping across whole quanta.
    report = engine.run_sessions(sessions, label="perf:scan-contended",
                                 morsel_ops=128)
    wall_s = time.perf_counter() - start
    return wall_s, _digest_session_report(engine, report)


# -- trace-generation microbenchmark -----------------------------------------


def _trace_gen_params(scale: float) -> tuple[YCSBConfig, dict]:
    ycsb_config = YCSBConfig(
        mix="E",
        num_pages=max(64, int(20_000 * scale)),
        num_ops=max(256, int(8_000 * scale)),
        seed=17,
    )
    htap_params = dict(
        oltp_pages=max(64, int(4_000 * scale)),
        olap_pages=max(64, int(10_000 * scale)),
        oltp_ops=max(256, int(20_000 * scale)),
        olap_repeats=2,
        oltp_per_olap=4,
        seed=29,
    )
    return ycsb_config, htap_params


def _trace_gen_runner(fast: bool, scale: float) -> tuple[float, str]:
    """Time trace *generation*: columnar emitters vs scalar generators.

    Covers the whole pipeline — vectorised op-mix decode, insert
    cursors, scan expansion (YCSB mix E) and the block-aware HTAP
    interleave. The digest is over elementwise trace content, so both
    lanes must generate the identical access sequence.
    """
    ycsb_config, htap_params = _trace_gen_params(scale)
    if fast:
        start = time.perf_counter()
        ycsb_part = list(ycsb_blocks(ycsb_config))
        htap_part = list(mixed_htap_blocks(**htap_params))
        wall_s = time.perf_counter() - start
        digest = hashlib.sha256(
            (_digest_blocks(ycsb_part)
             + _digest_blocks(htap_part)).encode()
        ).hexdigest()
    else:
        start = time.perf_counter()
        ycsb_part = list(ycsb_trace(ycsb_config))
        htap_part = list(mixed_htap_trace(**htap_params))
        wall_s = time.perf_counter() - start
        digest = hashlib.sha256(
            (_digest_accesses(ycsb_part)
             + _digest_accesses(htap_part)).encode()
        ).hexdigest()
    return wall_s, digest


def _digest_table(table: TenantTable) -> str:
    """A content digest over every tenant attribute column.

    Raw little-endian column bytes, so both lanes must agree on every
    bit of every attribute of every tenant.
    """
    digest = hashlib.sha256()
    for name, column in table.columns().items():
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(column).tobytes())
    return digest.hexdigest()


def _tenant_gen_runner(fast: bool, scale: float) -> tuple[float, str]:
    """Time tenant *population* generation: columnar vs object-per-tenant.

    ``fast`` draws every attribute column-major straight into the SoA
    ``TenantTable``; ``compat`` materialises one ``CloudWorkload``
    object per tenant the way the pre-serving generator did (packing
    the objects back into columns happens outside the timed region).
    The digest covers the raw bytes of every column.
    """
    count = max(1_000, int(100_000 * scale))
    if fast:
        start = time.perf_counter()
        table = TenantTable.generate(count=count, num_ops=2_000, seed=7)
        wall_s = time.perf_counter() - start
    else:
        start = time.perf_counter()
        workloads = generate_population(count=count, num_ops=2_000, seed=7)
        wall_s = time.perf_counter() - start
        table = TenantTable.from_workloads(workloads)
    return wall_s, _digest_table(table)


MICROBENCHES: dict[str, BenchSpec] = {
    "scan": BenchSpec(
        name="scan",
        description="sequential scan, warm CXL-resident table (hit path)",
        min_speedup=10.0,
        runner=_engine_runner(_scan_builder, "scan"),
    ),
    "oltp": BenchSpec(
        name="oltp",
        description="zipfian YCSB-B point traffic, DRAM+CXL with live placement",
        min_speedup=5.0,
        runner=_engine_runner(_oltp_builder, "oltp"),
    ),
    "htap": BenchSpec(
        name="htap",
        description="per-op alternating OLTP/scan mix, object trace"
                    " (coalescer worst case, object path)",
        min_speedup=1.0,
        runner=_engine_runner(_htap_builder, "htap"),
    ),
    "htap-blocks": BenchSpec(
        name="htap-blocks",
        description="per-op alternating OLTP/scan mix, columnar blocks"
                    " (coalescer worst case, block path)",
        min_speedup=5.0,
        runner=_engine_runner(_htap_blocks_builder, "htap-blocks"),
    ),
    "fault-storm": BenchSpec(
        name="fault-storm",
        description=("cold-scan fault storm: bulk fault resolution, "
                     "eviction/demotion cascades, dirty writebacks"),
        min_speedup=2.0,
        runner=_engine_runner(_fault_storm_builder, "fault-storm"),
    ),
    "scan-contended": BenchSpec(
        name="scan-contended",
        description="8 concurrent scan sessions contending for one"
                    " expander (session scheduler hot path)",
        min_speedup=8.0,
        runner=_contended_runner,
    ),
    "oltp-contended": BenchSpec(
        name="oltp-contended",
        description="8 mixed YCSB-B sessions striped over two expanders"
                    " (scheduler short-segment / think-bearing path)",
        min_speedup=3.0,
        runner=_oltp_contended_runner,
    ),
    "trace-gen": BenchSpec(
        name="trace-gen",
        description="workload generation: columnar block emitters vs"
                    " scalar per-Access generators",
        min_speedup=3.0,
        runner=_trace_gen_runner,
    ),
    "tenant-gen": BenchSpec(
        name="tenant-gen",
        description="tenant population generation: columnar SoA draw"
                    " vs object-per-tenant materialisation",
        min_speedup=10.0,
        runner=_tenant_gen_runner,
    ),
}


def run_microbench(name: str, fast: bool,
                   scale: float = 1.0) -> tuple[float, str]:
    """Run one microbenchmark in one lane.

    Returns ``(wall_seconds, sim_digest)`` where the digest covers
    everything the lane computed (simulated run state for engine
    benches, elementwise trace content for generation benches).
    """
    spec = MICROBENCHES.get(name)
    if spec is None:
        raise ConfigError(
            f"unknown microbenchmark {name!r};"
            f" known: {', '.join(sorted(MICROBENCHES))}"
        )
    return spec.runner(fast, scale)
