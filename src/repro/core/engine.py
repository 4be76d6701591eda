"""The scale-up engine facade.

:class:`ScaleUpEngine` bundles a host, its memory tiers, and a tiered
buffer pool behind a small API: build a configuration, feed it access
traces, read back an :class:`EngineReport`. It is the object most
examples and experiments construct first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .. import config
from ..errors import ConfigError
from ..sim.context import SimContext
from ..sim.interconnect import AccessPath, Link
from ..sim.memory import MemoryDevice
from ..storage.disk import StorageDevice
from ..storage.file import PageFile
from ..units import PAGE_SIZE, SECOND, fmt_ns
from ..workloads.traces import Access, AccessBlock, accesses_to_blocks
from .buffer import Tier, TieredBufferPool
from .placement import DbCostPolicy, PlacementPolicy
from .temperature import ExactTracker

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
            tracker=ExactTracker(),
            page_size=page_size,
            ctx=ctx,
        )
        return cls(pool, name=name)

    # -- execution ----------------------------------------------------------

    def run(self, trace: Iterable[Access] | Iterable[AccessBlock],
            label: str | None = None) -> EngineReport:
        """Execute a trace; returns the run report.

        Each access charges its CPU think time plus the buffer pool's
        demand latency to the engine clock. The trace may carry scalar
        :class:`Access` records, :class:`AccessBlock` chunks, or a mix
        of both — the simulated result is identical either way.

        The trace is packed into blocks
        (:func:`~repro.workloads.traces.accesses_to_blocks`; blocks
        already in it pass through) and each is charged by
        :meth:`TieredBufferPool.access_block`, which threads
        ``demand_ns`` through as its accumulator and charges think
        time per access, so every float addition happens in the scalar
        loop's order — the report is bit-identical in every delivery
        form.

        Delivery is open-loop: packing pulls a scalar generator up to
        ``BLOCK_OPS`` accesses ahead of the clock, so a trace must not
        read the pool or the clock to decide what it yields next (no
        generator in :mod:`repro.workloads` does).
        """
        start = self._run_start()
        demand_ns = 0.0
        think_ns = 0.0
        ops = 0
        access_block = self.pool.access_block
        with self.ctx.span(f"run:{label or self.name}", cat="engine"):
            for block in accesses_to_blocks(trace):
                ops += len(block)
                demand_ns = access_block(block, accum=demand_ns)
                thinks = block.think_ns
                if thinks.any():
                    # The think accumulator's scalar addition chain as
                    # one left fold; a zero think adds exactly nothing.
                    chain = np.empty(thinks.shape[0] + 1)
                    chain[0] = think_ns
                    chain[1:] = thinks
                    think_ns = float(np.add.accumulate(chain)[-1])
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
                     policy=None, morsel_ops: int | None = None):
        """Execute several client sessions as genuine concurrency.

        Convenience front end for
        :class:`~repro.core.sessions.ConcurrentEngine`: *sessions* may
        hold :class:`~repro.core.sessions.ClientSession` objects or
        raw traces (scalar or block form). Returns a
        :class:`~repro.core.sessions.SessionRunReport`. An N=1 run is
        byte-identical to :meth:`run` on the same trace; N>1 runs are
        deterministic and permutation-invariant.
        """
        from .sessions import MORSEL_OPS, ConcurrentEngine
        executor = ConcurrentEngine(
            self.pool, name=self.name, policy=policy,
            morsel_ops=MORSEL_OPS if morsel_ops is None else morsel_ops,
        )
        return executor.run(sessions, label=label)

    def warm_with(self, trace: Iterable[Access]) -> None:
        """Run a trace purely to populate the pool (report discarded)."""
        self.run(trace, label=f"{self.name}-warmup")

    def preload(self, page_ids, nbytes: int | None = None,
                write: bool = False, is_scan: bool = False,
                think_ns: float = 0.0) -> None:
        """Array-native warm-up: charge one uniform run of page ids.

        The id array routes straight into the pool's array lane —
        cold-pool faults resolve in its block window instead of one
        scalar chain per page — leaving pool state
        byte-identical to :meth:`warm_with` on the equivalent scalar
        trace (same ids, same shape). *nbytes* defaults to the pool's
        cache-line access size, matching ``Access()`` defaults.
        """
        kwargs = {} if nbytes is None else {"nbytes": nbytes}
        self.pool.preload(page_ids, write=write, is_scan=is_scan,
                          think_ns=think_ns, **kwargs)

    def __repr__(self) -> str:
        return f"ScaleUpEngine({self.name!r}, pool={self.pool!r})"
