"""Concurrent multi-client sessions on the discrete-event core.

The paper's scale-up argument (Sec 2.3–2.5, 3.2–3.3) is about *many*
queries and tenants contending for the same CXL links and expanders.
This module makes that contention first-class: a
:class:`ClientSession` is one client stream — an Access/AccessBlock
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
  in fairness-policy order with session *names* as the tie-breaker;
  per-session state is keyed and reported by name. The report is
  therefore a function of the session *set*, not the list order.

Fairness is pluggable: :class:`FifoPolicy` (arrival order, name
tie-break), :class:`RoundRobinPolicy` (cycle by name), and
:class:`WeightedPolicy` (stride scheduling over session weights).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from ..errors import ConfigError, require_count
from ..sim.clock import SimClock
from ..sim.events import Simulator
from ..sim.ladder import repeat_add
from ..units import SECOND
from ..workloads.traces import (Access, AccessBlock, ShapeSegments,
                                accesses_to_blocks, whole_trace_block)
from .buffer import TieredBufferPool
from .morsel import Morsel

#: Default scheduling quantum: accesses one session executes per
#: wakeup before control returns to the event loop. Smaller quanta
#: resolve cross-session contention at finer grain; larger quanta
#: amortise scheduling overhead. Simulated results are deterministic
#: at any quantum, and N=1 runs are byte-identical at every quantum.
MORSEL_OPS = 32

#: ``block_ops`` used when a session trace is packed for execution:
#: effectively unbounded, so scalar traces become *one* block and
#: same-shape runs split only at shape changes and pre-existing block
#: boundaries — the run-length ``samples`` stream does not depend on
#: a packing granularity.
_WHOLE_TRACE = 1 << 62


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

    *name* is the session's identity everywhere — scheduling
    tie-breaks, report keys, policy state — so reports are invariant
    under session-list permutation. *weight* only matters under
    :class:`WeightedPolicy`.
    """

    __slots__ = ("name", "trace", "weight", "index", "clock", "report",
                 "_segments", "_done")

    def __init__(self, name: str, trace: Iterable[Access | AccessBlock],
                 weight: float = 1.0) -> None:
        if not name:
            raise ConfigError("a session needs a non-empty name")
        if not 0 < weight < math.inf:
            raise ConfigError(
                f"session {name!r}: weight must be finite and positive,"
                f" got {weight!r}")
        self.name = name
        self.trace = trace
        self.weight = weight
        self.index = 0
        self.clock: SimClock | None = None
        self.report: SessionReport | None = None
        self._segments: ShapeSegments | None = None
        self._done = False

    def _begin(self, start_ns: float) -> None:
        """Arm the session for a run starting at *start_ns*.

        The trace is packed into columnar blocks on the way in
        (whole-trace ``block_ops``, so no artificial run splits): the
        cursor then serves each quantum as a span over a block's id
        column for the pool's quantum lane. Lossless — the packed
        sequence is elementwise identical, and runs split only at
        shape changes and pre-existing block boundaries.
        """
        self.clock = SimClock(start_ns)
        self.report = SessionReport(name=self.name, start_ns=start_ns,
                                    end_ns=start_ns)
        packed = whole_trace_block(self.trace)
        if packed is not None:
            self._segments = ShapeSegments((packed,))
        else:
            self._segments = ShapeSegments(
                accesses_to_blocks(self.trace, block_ops=_WHOLE_TRACE))
        self._done = False

    def __repr__(self) -> str:
        return f"ClientSession({self.name!r}, weight={self.weight:g})"


# -- fairness policies -------------------------------------------------------


class FairnessPolicy:
    """Orders the ready set at each scheduling instant.

    A policy must be a deterministic function of session *names*,
    weights, and its own scheduling history — never of session list
    order or object identity — which is what keeps N>1 reports
    permutation-invariant.
    """

    name = "fifo"

    def attach(self, sessions: Sequence[ClientSession]) -> None:
        """Called once per run with the name-sorted session list."""

    def select(self, ready: Sequence[ClientSession]) -> ClientSession:
        """Pick the next session to run from a non-empty ready set."""
        raise NotImplementedError

    def on_ran(self, session: ClientSession, ops: int) -> None:
        """Observe that *session* just executed *ops* accesses."""


class FifoPolicy(FairnessPolicy):
    """Arrival order; simultaneous arrivals resolve by session name.

    The ready set only ever holds sessions that woke at the same
    instant (earlier wakeups were drained in an earlier event), so
    arrival-order FIFO reduces to the deterministic name tie-break.
    """

    name = "fifo"

    def select(self, ready: Sequence[ClientSession]) -> ClientSession:
        best = ready[0]
        for session in ready:
            if session.name < best.name:
                best = session
        return best


class RoundRobinPolicy(FairnessPolicy):
    """Cycle through sessions by name: after session X runs, the
    smallest-named ready session above X goes first (wrapping)."""

    name = "round_robin"

    def __init__(self) -> None:
        self._last: str | None = None

    def attach(self, sessions: Sequence[ClientSession]) -> None:
        self._last = None

    def select(self, ready: Sequence[ClientSession]) -> ClientSession:
        last = self._last
        best = None
        if last is not None:
            for session in ready:
                if session.name > last and \
                        (best is None or session.name < best.name):
                    best = session
        if best is None:
            for session in ready:
                if best is None or session.name < best.name:
                    best = session
        return best

    def on_ran(self, session: ClientSession, ops: int) -> None:
        self._last = session.name


class WeightedPolicy(FairnessPolicy):
    """Stride scheduling: each session's pass value advances by
    ``ops / weight`` as it runs; the lowest pass (ties by name) runs
    next, so long-run service is proportional to weight."""

    name = "weighted"

    def __init__(self) -> None:
        self._pass: dict[str, float] = {}

    def attach(self, sessions: Sequence[ClientSession]) -> None:
        self._pass = {session.name: 0.0 for session in sessions}

    def select(self, ready: Sequence[ClientSession]) -> ClientSession:
        passes = self._pass
        best = ready[0]
        best_key = (passes.get(best.name, 0.0), best.name)
        for session in ready[1:]:
            key = (passes.get(session.name, 0.0), session.name)
            if key < best_key:
                best = session
                best_key = key
        return best

    def on_ran(self, session: ClientSession, ops: int) -> None:
        self._pass[session.name] = \
            self._pass.get(session.name, 0.0) + ops / session.weight


# -- the concurrent run report ----------------------------------------------


@dataclass
class SessionRunReport:
    """Outcome of a concurrent multi-session run."""

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
                 policy: FairnessPolicy | None = None,
                 morsel_ops: int = MORSEL_OPS,
                 on_morsel: Callable[[str, Morsel], None] | None = None,
                 ctx=None) -> None:
        require_count("morsel_ops", morsel_ops, 1)
        if ctx is not None and ctx is not pool.ctx:
            raise ConfigError(
                f"concurrent engine {name!r} was given a SimContext"
                " that is not its pool's; build the pool with the same"
                " context"
            )
        self.pool = pool
        self.name = name
        self.policy = policy if policy is not None else FifoPolicy()
        self.morsel_ops = int(morsel_ops)
        self.ctx = pool.ctx
        self.ctx.bind_clock(pool.clock, owner=f"sessions:{name}")
        #: Morsel hook: called after every executed quantum with
        #: ``(session_name, Morsel(query_id, service_ns))`` — the same
        #: shape :class:`~repro.core.morsel.RackScheduler` consumes, so
        #: session quanta can feed morsel-level schedulers directly.
        self.on_morsel = on_morsel
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
        for rank, session in enumerate(order):
            session.index = rank
            session._begin(start_ns)
        policy = self.policy
        policy.attach(order)
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
            # owed (or pinned) in the pool's hit log.
            pool._drain_lazy()
        report = SessionRunReport(
            name=label or f"{self.name}-x{len(order)}",
            policy=policy.name,
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
        drain it in fairness-policy order (delta cycle).

        :meth:`Simulator.pop_due` returns *every* wakeup sharing the
        earliest pending instant as one batch, so equal-timestamp
        ordering is a policy decision with a name tie-break instead of
        a heap-insertion artifact — the permutation-invariance
        guarantee. Two scheduling shortcuts ride on top, both float-
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
        policy = self.policy
        begun: ClientSession | None = None
        try:
            while True:
                ready = sim.pop_due()
                if not ready:
                    break
                while ready:
                    chosen = policy.select(ready)
                    ready.remove(chosen)
                    if begun is not chosen:
                        if begun is not None:
                            pool.session_end()
                        pool.session_begin(chosen.clock)
                        begun = chosen
                    policy.on_ran(chosen, self._run_quantum(chosen))
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

    def _run_quantum(self, session: ClientSession) -> int:
        """Execute one morsel quantum of a session; returns ops run.

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
        start_ns = session.clock.now
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
                    # ScaleUpEngine.run: an exact ladder once the run
                    # is long enough to amortise the setup.
                    if seg_count >= 64:
                        think_total = repeat_add(think_total, th, seg_count)
                    else:
                        for _ in range(seg_count):
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
            if self.on_morsel is not None:
                self.on_morsel(session.name, Morsel(
                    query_id=session.index,
                    service_ns=session.clock.now - start_ns,
                ))
        return ops

    def __repr__(self) -> str:
        return (
            f"ConcurrentEngine({self.name!r},"
            f" policy={self.policy.name},"
            f" morsel_ops={self.morsel_ops})"
        )
