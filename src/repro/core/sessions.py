"""Concurrent multi-client sessions on the discrete-event core.

The paper's scale-up argument (Sec 2.3–2.5, 3.2–3.3) is about *many*
queries and tenants contending for the same CXL links and expanders.
This module makes that contention first-class: a
:class:`ClientSession` is one client stream — an AccessBlock
trace with its own think-time state, clock cursor, and stats — and a
:class:`ConcurrentEngine` interleaves N of them through the
discrete-event :class:`~repro.sim.events.Simulator`, resolving
shared-device and shared-link contention via per-resource
:class:`~repro.sim.bandwidth.WaitQueue` objects.

Execution model
---------------

Each session owns an **unbound clock cursor** (a plain
:class:`~repro.sim.clock.SimClock` that is never bound to the
context), so the run still has exactly one authoritative clock — the
pool's — advanced only by the event loop and the final catch-up to
the makespan. A session wakeup runs one **morsel quantum**: up to
``morsel_ops`` accesses pulled from the session's trace as spans of
same-shape segments (:class:`~repro.workloads.traces.ShapeSegments`)
and charged against the session cursor, one
:meth:`~repro.core.buffer.TieredBufferPool.access_quantum` call per
span, with arrival-order waits on the tier's shared resources folded
into demand latency; every quantum takes this one route, hooked or
not. The session then re-arms a wakeup at its cursor time.

Determinism
-----------

Two guarantees, both pinned by tests:

* **N=1 byte-identity** — a single session produces exactly the floats
  of :meth:`~repro.core.engine.ScaleUpEngine.run` on the same trace: a
  lone session never waits (its own completion is always at or past
  each resource's free time), a zero wait leaves every float
  untouched, and the array lane's additions are windowing-invariant.
* **N>1 permutation invariance** — wakeups sharing an instant are
  collected into a ready set (``Simulator.peek_time_ns``) and drained
  in session-*name* order; per-session state is keyed and reported by
  name. The report is therefore a function of the session *set*, not
  the list order.

That is the scheduler's one rule: the ready set only ever holds
sessions that woke at the same instant, so arrival order (FIFO) comes
down to the name order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from operator import attrgetter
from typing import Iterable, Sequence

from ..errors import ConfigError, require_count
from ..sim.clock import SimClock
from ..sim.events import Simulator
from ..units import SECOND
from ..workloads.traces import AccessBlock, ShapeSegments, require_trace
from .buffer import TieredBufferPool

_by_name = attrgetter("name")

#: Default scheduling quantum: accesses one session executes per
#: wakeup before control returns to the event loop. Smaller quanta
#: resolve cross-session contention at finer grain; larger quanta
#: amortise scheduling overhead. Simulated results are deterministic
#: at any quantum, and N=1 runs are byte-identical at every quantum.
MORSEL_OPS = 32


def _weighted_percentile(samples: Sequence[tuple[float, int]],
                         q: float) -> float:
    """Nearest-rank percentile over ``(value, weight)`` run-length
    samples. Sorting by value makes the result independent of sample
    arrival order (hence of session scheduling details)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    total = 0
    for _value, count in ordered:
        total += count
    if total <= 0:
        return 0.0
    rank = q * total
    cum = 0
    for value, count in ordered:
        cum += count
        if cum >= rank:
            return value
    return ordered[-1][0]


@dataclass(slots=True)
class SessionReport:
    """Per-session outcome of a concurrent run.

    Latency is stored as run-length samples ``(mean latency of one
    same-shape run, run length)`` — one tuple per executed run, never
    one float per access — so million-access sessions stay flat.
    Percentiles over these samples are weighted nearest-rank.
    """

    name: str
    ops: int = 0
    demand_ns: float = 0.0
    think_ns: float = 0.0
    wait_ns: float = 0.0
    misses: int = 0
    migrations: int = 0
    quanta: int = 0
    start_ns: float = 0.0
    end_ns: float = 0.0
    samples: list[tuple[float, int]] = field(default_factory=list)

    @property
    def total_ns(self) -> float:
        """Virtual time from the session's start to its last access."""
        return self.end_ns - self.start_ns

    @property
    def mean_latency_ns(self) -> float:
        """Mean demand latency per access (waits included)."""
        if self.ops == 0:
            return 0.0
        return self.demand_ns / self.ops

    @property
    def p95_latency_ns(self) -> float:
        """Weighted nearest-rank 95th-percentile run latency."""
        return _weighted_percentile(self.samples, 0.95)


class ClientSession:
    """One client stream: a trace plus think-time state, a clock
    cursor, and per-session stats.

    *name* is the session's identity everywhere — the scheduling
    order, report keys — so reports are invariant under session-list
    permutation.
    """

    __slots__ = ("name", "trace", "clock", "report", "_segments",
                 "_done")

    def __init__(self, name: str, trace: Iterable[AccessBlock]) -> None:
        if not isinstance(name, str) or not name:
            raise ConfigError(
                f"a session needs a non-empty str name, got {name!r}")
        self.name = name
        self.trace = require_trace(trace)
        self.clock: SimClock | None = None
        self.report: SessionReport | None = None
        self._segments: ShapeSegments | None = None
        self._done = False

    def _begin(self, start_ns: float) -> None:
        """Arm the session for a run starting at *start_ns*.

        The trace's blocks go straight to a :class:`ShapeSegments`
        cursor, which serves each quantum as a span over a block's id
        column for the pool's quantum lane; runs split at shape changes
        and block boundaries.
        """
        self.clock = SimClock(start_ns)
        self.report = SessionReport(name=self.name, start_ns=start_ns,
                                    end_ns=start_ns)
        self._segments = ShapeSegments(self.trace)
        self._done = False

    def __repr__(self) -> str:
        return f"ClientSession({self.name!r})"


# -- the concurrent run report ----------------------------------------------


@dataclass
class SessionRunReport:
    """Outcome of a concurrent multi-session run. *policy* names the
    scheduling rule, arrival order by session name: always ``"fifo"``."""

    name: str
    policy: str = "fifo"
    makespan_ns: float = 0.0
    sessions: dict[str, SessionReport] = field(default_factory=dict)
    #: Hierarchical metrics snapshot taken when the run finished;
    #: purely observational.
    metrics: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def num_sessions(self) -> int:
        return len(self.sessions)

    @property
    def ops(self) -> int:
        """Total accesses across all sessions."""
        return sum(report.ops for report in self.sessions.values())

    @property
    def demand_ns(self) -> float:
        """Total demand latency across all sessions (waits included)."""
        return sum(report.demand_ns for report in self.sessions.values())

    @property
    def wait_ns(self) -> float:
        """Total contention wait across all sessions."""
        return sum(report.wait_ns for report in self.sessions.values())

    @property
    def mean_latency_ns(self) -> float:
        ops = self.ops
        if ops == 0:
            return 0.0
        return self.demand_ns / ops

    @property
    def p95_latency_ns(self) -> float:
        """Weighted nearest-rank p95 over every session's samples."""
        samples: list[tuple[float, int]] = []
        for report in self.sessions.values():
            samples.extend(report.samples)
        return _weighted_percentile(samples, 0.95)

    @property
    def throughput_ops_per_s(self) -> float:
        """Aggregate accesses per second of virtual time."""
        if self.makespan_ns <= 0:
            return 0.0
        return self.ops / self.makespan_ns * SECOND

    def session(self, name: str) -> SessionReport:
        """One session's report, by name."""
        report = self.sessions.get(name)
        if report is None:
            raise ConfigError(
                f"no session {name!r} in this run;"
                f" have: {sorted(self.sessions)}"
            )
        return report

    def p95_for(self, names: Iterable[str]) -> float:
        """Weighted p95 restricted to *names* (e.g. the point-lookup
        sessions of an interference experiment)."""
        samples: list[tuple[float, int]] = []
        for name in names:
            report = self.sessions.get(name)
            if report is not None:
                samples.extend(report.samples)
        return _weighted_percentile(samples, 0.95)


# -- the concurrent engine ---------------------------------------------------


class ConcurrentEngine:
    """Interleaves N client sessions through the discrete-event core.

    Built over a :class:`~repro.core.buffer.TieredBufferPool` the same
    way :class:`~repro.core.engine.ScaleUpEngine` is; one engine can
    run many session sets sequentially (pool state persists, like any
    warm engine).
    """

    def __init__(self, pool: TieredBufferPool, name: str = "sessions",
                 morsel_ops: int = MORSEL_OPS, ctx=None) -> None:
        require_count("morsel_ops", morsel_ops, 1)
        if ctx is not None and ctx is not pool.ctx:
            raise ConfigError(
                f"concurrent engine {name!r} was given a SimContext"
                " that is not its pool's; build the pool with the same"
                " context"
            )
        self.pool = pool
        self.name = name
        self.morsel_ops = int(morsel_ops)
        self.ctx = pool.ctx
        self.ctx.bind_clock(pool.clock, owner=f"sessions:{name}")
        self._sim: Simulator | None = None

    # -- session set handling ------------------------------------------

    def _normalize(self, sessions) -> list[ClientSession]:
        """Accept ClientSession objects or raw traces; return the
        name-sorted session list (names must be unique)."""
        items = list(sessions)
        if not items:
            raise ConfigError("need at least one session")
        width = max(2, len(str(len(items) - 1)))
        normalized: list[ClientSession] = []
        for index, item in enumerate(items):
            if isinstance(item, ClientSession):
                normalized.append(item)
            else:
                # Zero-padded positional names keep name order == list
                # order for anonymous traces.
                normalized.append(
                    ClientSession(f"s{index:0{width}d}", item))
        names = [session.name for session in normalized]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate session names: {sorted(names)}")
        normalized.sort(key=lambda session: session.name)
        return normalized

    # -- execution -----------------------------------------------------

    def run(self, sessions, label: str | None = None) -> SessionRunReport:
        """Run a set of sessions to completion; returns the report.

        *sessions* may hold :class:`ClientSession` objects, raw traces
        (wrapped with positional names), or a mix. The report is
        identical for any permutation of the same session set.
        """
        order = self._normalize(sessions)
        pool = self.pool
        clock = pool.clock
        ctx = self.ctx
        start_ns = clock.now
        sim = Simulator(ctx=ctx)
        self._sim = sim
        for session in order:
            session._begin(start_ns)
        # Build the shared-resource queues up front so every session
        # (including the first) contends through the same objects.
        pool.wait_queues()
        for session in order:
            sim.schedule(start_ns, session)
        with ctx.span(f"run-sessions:{label or self.name}",
                      cat="engine"):
            self._drive(sim)
            makespan = start_ns
            for session in order:
                if session.report.end_ns > makespan:
                    makespan = session.report.end_ns
            if clock.now < makespan:
                clock.advance_to(makespan)
            # The run owns its deferred bookkeeping: nothing is left
            # owed in the pool's hit log.
            pool._drain_lazy()
        report = SessionRunReport(
            name=label or f"{self.name}-x{len(order)}",
            makespan_ns=makespan - start_ns,
            sessions={session.name: session.report
                      for session in order},
        )
        metrics = ctx.metrics
        metrics.incr("engine.session_runs")
        metrics.incr("engine.sessions", len(order))
        metrics.incr("engine.ops", report.ops)
        report.metrics = metrics.snapshot()
        self._sim = None
        return report

    def _drive(self, sim: Simulator) -> None:
        """The scheduling loop: pop each instant's wakeup batch and
        drain it in session-name order (delta cycle).

        :meth:`Simulator.pop_due` returns *every* wakeup sharing the
        earliest pending instant as one batch, so equal-timestamp
        ordering is the name order instead of a heap-insertion
        artifact — the permutation-invariance guarantee. Two scheduling shortcuts ride on top, both float-
        identical to the naive loop:

        * **sole-runnable fast path** — when the session just run is
          still strictly ahead of every queued wakeup, it is re-run
          directly instead of round-tripping through the heap (the
          heap would pop it alone anyway);
        * **hoisted session lane** — ``pool.session_begin`` /
          ``session_end`` bracket maximal runs of consecutive quanta
          of the *same* session rather than each quantum (the pair
          only swaps cursor attributes, so the floats cannot differ).
        """
        pool = self.pool
        begun: ClientSession | None = None
        try:
            while True:
                ready = sim.pop_due()
                if not ready:
                    break
                # Last name first, so pop() takes them in name order.
                ready.sort(key=_by_name, reverse=True)
                while ready:
                    chosen = ready.pop()
                    if begun is not chosen:
                        if begun is not None:
                            pool.session_end()
                        pool.session_begin(chosen.clock)
                        begun = chosen
                    self._run_quantum(chosen)
                    if chosen._done:
                        continue
                    # Strictly in the future: every access has positive
                    # latency, so the cursor moved past sim.now.
                    time_ns = chosen.clock._now
                    if not ready:
                        next_ns = sim.peek_time_ns()
                        if next_ns is None or time_ns < next_ns:
                            ready.append(chosen)
                            continue
                    sim.schedule(time_ns, chosen)
        finally:
            if begun is not None:
                pool.session_end()

    def _run_quantum(self, session: ClientSession) -> None:
        """Execute one morsel quantum of a session.

        The caller (:meth:`_drive`) holds the pool's session lane open
        around consecutive quanta. Each span the cursor hands out
        (:meth:`~repro.workloads.traces.ShapeSegments.next_span`: up
        to the remaining budget, within one block, across shape
        changes) is one :meth:`~repro.core.buffer.TieredBufferPool.\
access_quantum` call; its per-segment demand boundaries rebuild the
        think chain and the per-run samples segment by segment.
        """
        pool = self.pool
        report = session.report
        stats = pool.stats
        misses_before = stats.misses
        migrations_before = stats.migrations
        wait_before = pool.session_wait_ns
        budget = self.morsel_ops
        segments = session._segments
        access_quantum = pool.access_quantum
        samples = report.samples
        while budget > 0:
            span = segments.next_span(budget)
            if span is None:
                session._done = True
                break
            ids, segs, count = span
            prev = report.demand_ns
            report.demand_ns, seg_demands = access_quantum(ids, segs, prev)
            think_total = report.think_ns
            for (a, b, _nb, _wr, _sc, th), demand in zip(segs, seg_demands):
                seg_count = b - a
                if th:
                    # Replay the scalar think addition chain, as in
                    # ScaleUpEngine.run.
                    for _ in repeat(None, seg_count):
                        think_total += th
                samples.append(((demand - prev) / seg_count, seg_count))
                prev = demand
            report.think_ns = think_total
            budget -= count
        ops = self.morsel_ops - budget
        report.ops += ops
        report.misses += stats.misses - misses_before
        report.migrations += stats.migrations - migrations_before
        report.wait_ns += pool.session_wait_ns - wait_before
        report.end_ns = session.clock.now
        if ops:
            report.quanta += 1

    def __repr__(self) -> str:
        return (f"ConcurrentEngine({self.name!r},"
                f" morsel_ops={self.morsel_ops})")
