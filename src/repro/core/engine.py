"""The scale-up engine facade.

:class:`ScaleUpEngine` bundles a host, its memory tiers, and a tiered
buffer pool behind a small API: build a configuration, feed it access
traces, read back an :class:`EngineReport`. It is the object most
examples and experiments construct first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .. import config
from ..errors import ConfigError
from ..sim.context import SimContext
from ..sim.interconnect import AccessPath, Link
from ..sim.ladder import left_fold
from ..sim.memory import MemoryDevice
from ..storage.disk import StorageDevice
from ..storage.file import PageFile
from ..units import PAGE_SIZE, SECOND, fmt_ns
from ..workloads.traces import (BLOCK_OPS, AccessBlock, require_block,
                               require_trace)
from .buffer import Tier, TieredBufferPool, check_block
from .placement import DbCostPolicy, PlacementPolicy

#: The most rows :meth:`ScaleUpEngine.run` joins consecutive blocks
#: into before charging them as one: a placement epoch then costs the
#: pool one window rather than one per generator block, while the
#: joined columns and the window's per-run arrays stay ~1 MB.
RUN_OPS = 8 * BLOCK_OPS


def _runs(trace: Iterable[AccessBlock]) -> Iterator[AccessBlock]:
    """*trace*'s blocks joined into runs: consecutive non-empty blocks
    of the same column dtypes, at most :data:`RUN_OPS` rows unless one
    block alone is longer (a block is never split). Each block is
    checked as it arrives (:func:`require_block`, :func:`check_block`);
    whatever a refused block or the trace itself raises propagates
    after the run before it is yielded, so it finds every earlier
    access charged."""
    run: list[AccessBlock] = []
    rows = 0
    kind = None
    try:
        for block in require_trace(trace):
            n = len(require_block(block))
            if not n:
                continue
            check_block(block)
            dtypes = (block.page_id.dtype, block.write.dtype,
                      block.is_scan.dtype, block.nbytes.dtype,
                      block.think_ns.dtype)
            if run and (dtypes != kind or rows + n > RUN_OPS):
                yield AccessBlock.concat(run)
                run, rows = [], 0
            run.append(block)
            rows += n
            kind = dtypes
    except Exception:
        if run:
            yield AccessBlock.concat(run)
        raise
    if run:
        yield AccessBlock.concat(run)


@dataclass
class EngineReport:
    """Outcome of running a trace through an engine."""

    name: str
    ops: int = 0
    total_ns: float = 0.0
    demand_ns: float = 0.0
    think_ns: float = 0.0
    hit_rate: float = 0.0
    tier_hit_rates: list[float] = field(default_factory=list)
    migrations: int = 0
    misses: int = 0
    #: Hierarchical metrics snapshot taken when the run finished
    #: (device/link/pool/... namespaces); purely observational.
    metrics: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def mean_latency_ns(self) -> float:
        """Mean demand latency per access."""
        if self.ops == 0:
            return 0.0
        return self.demand_ns / self.ops

    @property
    def throughput_ops_per_s(self) -> float:
        """Accesses per second of virtual time."""
        if self.total_ns == 0:
            return 0.0
        return self.ops / self.total_ns * SECOND

    def slowdown_vs(self, baseline: "EngineReport") -> float:
        """Runtime ratio against a baseline run of the same trace."""
        if baseline.total_ns == 0:
            raise ConfigError("baseline has zero runtime")
        return self.total_ns / baseline.total_ns

    def __str__(self) -> str:
        tiers = ", ".join(f"{r:.1%}" for r in self.tier_hit_rates)
        return (
            f"EngineReport({self.name}: ops={self.ops:,},"
            f" time={fmt_ns(self.total_ns)},"
            f" mean={self.mean_latency_ns:.0f}ns,"
            f" hit={self.hit_rate:.1%} [{tiers}],"
            f" migrations={self.migrations})"
        )


class ScaleUpEngine:
    """A single-host database engine over tiered (CXL) memory."""

    def __init__(self, pool: TieredBufferPool, name: str = "engine",
                 ctx: SimContext | None = None) -> None:
        self.pool = pool
        self.name = name
        # The engine shares its pool's instrumentation context; an
        # explicitly passed context must BE the pool's (one spine, one
        # clock, per run).
        if ctx is not None and ctx is not pool.ctx:
            raise ConfigError(
                f"engine {name!r} was given a SimContext that is not"
                " its pool's; build the pool with the same context"
            )
        self.ctx = pool.ctx
        self.ctx.bind_clock(pool.clock, owner=f"engine:{name}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def build(
        cls,
        dram_pages: int,
        cxl_pages: int = 0,
        placement: PlacementPolicy | None = None,
        cxl_spec: config.MemorySpec | None = None,
        dram_spec: config.MemorySpec | None = None,
        through_switch: bool = False,
        backing: PageFile | None = None,
        with_storage: bool = True,
        name: str = "engine",
        page_size: int = PAGE_SIZE,
        ctx: SimContext | None = None,
    ) -> "ScaleUpEngine":
        """Build an engine with a DRAM tier and an optional CXL tier.

        ``through_switch`` adds a CXL 2.0 switch hop to the CXL tier's
        access path (the Fig 2(b) pooled configuration). With
        ``with_storage`` (default) and no explicit *backing*, an NVMe
        page file backs the pool so misses hit storage, as in a
        disk-based engine.

        *ctx* is the instrumentation spine threaded into every device,
        link, and the pool; omitted, a fresh one is created (picking
        up any ambient trace sink / metrics registry, see
        :func:`repro.sim.context.set_ambient`) so each engine stays
        independently clocked.
        """
        if dram_pages <= 0:
            raise ConfigError("dram_pages must be positive")
        if ctx is None:
            ctx = SimContext.ambient()
        dram_device = MemoryDevice(
            dram_spec or config.local_ddr5(), name=f"{name}-dram", ctx=ctx
        )
        tiers = [Tier(
            name="dram",
            path=AccessPath(device=dram_device),
            capacity_pages=dram_pages,
        )]
        if cxl_pages > 0:
            cxl_device = MemoryDevice(
                cxl_spec or config.cxl_expander_ddr5(), name=f"{name}-cxl",
                ctx=ctx,
            )
            links: tuple[Link, ...] = (
                Link(config.cxl_port(), name=f"{name}-cxl-port", ctx=ctx),
            )
            if through_switch:
                links += (
                    Link(config.cxl_switch_hop(),
                         name=f"{name}-cxl-switch", ctx=ctx),
                )
            tiers.append(Tier(
                name="cxl",
                path=AccessPath(device=cxl_device, links=links),
                capacity_pages=cxl_pages,
            ))
        if backing is None and with_storage:
            backing = PageFile(StorageDevice(), name=f"{name}-tablespace")
        pool = TieredBufferPool(
            tiers=tiers,
            backing=backing,
            placement=placement or DbCostPolicy(),
            page_size=page_size,
            ctx=ctx,
        )
        return cls(pool, name=name)

    # -- execution ----------------------------------------------------------

    def run(self, trace: Iterable[AccessBlock],
            label: str | None = None) -> EngineReport:
        """Execute a trace of :class:`AccessBlock` chunks; returns the
        run report.

        Each access charges its CPU think time plus the buffer pool's
        demand latency to the engine clock. Consecutive blocks of the
        same column dtypes are joined into runs of up to
        :data:`RUN_OPS` rows, and each run is charged by
        :meth:`TieredBufferPool.access_block`, which threads
        ``demand_ns`` through as its accumulator and charges think
        time per access, so every float addition happens in the
        one-access-at-a-time order — the report is bit-identical
        however the trace is chunked. Any item that is not a block is
        refused with a :class:`~repro.errors.ConfigError`, and a block
        :func:`~repro.core.buffer.check_block` refuses raises its
        error; either raises with every earlier block charged.

        Delivery is open-loop: a generator is pulled up to one run
        ahead of the clock, so a trace must not read the pool or the
        clock to decide what it yields next (no generator in
        :mod:`repro.workloads` does).
        """
        start = self._run_start()
        demand_ns = 0.0
        think_ns = 0.0
        ops = 0
        access_block = self.pool.access_block
        with self.ctx.span(f"run:{label or self.name}", cat="engine"):
            for block in _runs(trace):
                ops += len(block)
                demand_ns = access_block(block, accum=demand_ns)
                if block.think_ns.any():
                    # The think accumulator's scalar addition chain; a
                    # zero think adds exactly nothing.
                    think_ns = float(left_fold(think_ns,
                                               block.think_ns)[-1])
                # Free the run before the next one is joined.
                del block
        return self._run_report(start, label, ops, demand_ns, think_ns)

    def _run_start(self) -> tuple[float, int, int, int]:
        """The clock and pool counters a run's report is measured
        from."""
        stats = self.pool.stats
        return (self.pool.clock.now, stats.accesses, stats.misses,
                stats.migrations)

    def _run_report(self, start: tuple[float, int, int, int],
                    label: str | None, ops: int, demand_ns: float,
                    think_ns: float) -> EngineReport:
        """Settle the run's deferred bookkeeping and report it against
        the *start* snapshot."""
        pool = self.pool
        # The run owns its deferred bookkeeping, as a session run does.
        pool._drain_lazy()
        start_ns, start_accesses, start_misses, start_migrations = start
        stats = pool.stats
        window = stats.accesses - start_accesses
        report = EngineReport(
            name=label or self.name,
            ops=ops,
            total_ns=pool.clock.now - start_ns,
            demand_ns=demand_ns,
            think_ns=think_ns,
            migrations=stats.migrations - start_migrations,
            misses=stats.misses - start_misses,
        )
        if window > 0:
            report.hit_rate = 1.0 - report.misses / window
            report.tier_hit_rates = [
                stats.per_tier[i].hits / stats.accesses
                if stats.accesses else 0.0
                for i in range(len(pool.tiers))
            ]
        metrics = self.ctx.metrics
        metrics.incr("engine.runs")
        metrics.incr("engine.ops", ops)
        if report.total_ns > 0:
            metrics.observe("engine.run_ns", report.total_ns)
        report.metrics = metrics.snapshot()
        return report

    def run_sessions(self, sessions, label: str | None = None,
                     morsel_ops: int | None = None):
        """Execute several client sessions as genuine concurrency.

        Convenience front end for
        :class:`~repro.core.sessions.ConcurrentEngine`: *sessions* may
        hold :class:`~repro.core.sessions.ClientSession` objects or
        raw block traces. Returns a
        :class:`~repro.core.sessions.SessionRunReport`. An N=1 run is
        byte-identical to :meth:`run` on the same trace; N>1 runs are
        deterministic and permutation-invariant.
        """
        from .sessions import MORSEL_OPS, ConcurrentEngine
        executor = ConcurrentEngine(
            self.pool, name=self.name,
            morsel_ops=MORSEL_OPS if morsel_ops is None else morsel_ops,
        )
        return executor.run(sessions, label=label)

    def warm_with(self, trace: Iterable[AccessBlock]) -> None:
        """Run a trace purely to populate the pool (report discarded)."""
        self.run(trace, label=f"{self.name}-warmup")

    def preload(self, page_ids, nbytes: int | None = None,
                write: bool = False, is_scan: bool = False,
                think_ns: float = 0.0) -> None:
        """Array-native warm-up: charge one uniform run of page ids.

        The ids are one one-shape block to the pool's
        ``access_block`` — cold-pool faults resolve in its block
        window instead of one scalar chain per page — so pool state is
        byte-identical to :meth:`warm_with` on the equivalent
        one-shape trace (same ids, same shape). *nbytes* defaults to
        the pool's cache-line access size.
        """
        kwargs = {} if nbytes is None else {"nbytes": nbytes}
        self.pool.preload(page_ids, write=write, is_scan=is_scan,
                          think_ns=think_ns, **kwargs)

    def __repr__(self) -> str:
        return f"ScaleUpEngine({self.name!r}, pool={self.pool!r})"
