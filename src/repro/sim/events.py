"""Discrete-event simulation core.

:class:`Simulator` owns a :class:`~repro.sim.clock.SimClock` and a
priority queue of scheduled entries. Components schedule callbacks
at absolute or relative virtual times; :meth:`Simulator.run` dispatches
them in time order (FIFO among equal timestamps).

The engine layers use the simulator for asynchronous behaviour —
engine spawn/migration (Sec 3.2), failure detection (Sec 2.6) — while
fast-path memory accesses are charged analytically to per-thread clocks.

Two kinds of heap entry share one queue, both stored as plain
``(time_ns, seq, item)`` tuples so heap pushes and pops never invoke a
dataclass ``__lt__`` (the sequence number is unique, so the third
element is never compared):

* **engine events** — ``item`` is a cancellable :class:`Event` carrying
  a callback, created by :meth:`Simulator.at`/:meth:`Simulator.after`
  and dispatched by :meth:`Simulator.step`/:meth:`Simulator.run`;
* **lean wakeups** — ``item`` is an arbitrary payload (the concurrent
  session scheduler passes the session object itself), pushed by
  :meth:`Simulator.schedule` with no Event allocation and drained in
  same-instant batches by :meth:`Simulator.pop_due`.

A caller whose entries already arrive in time order can skip the queue
altogether and account for them with :meth:`Simulator.advance_to`.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from ..errors import SimulationError
from .clock import SimClock

if TYPE_CHECKING:  # pragma: no cover
    from .context import SimContext


@dataclass(order=True, slots=True)
class Event:
    """A scheduled callback. Ordering is (time, sequence number).

    Only cancellable engine events allocate one of these; session
    wakeups travel through the queue as bare payload tuples
    (:meth:`Simulator.schedule`).
    """

    time_ns: float
    seq: int
    callback: Callable[..., None] = field(compare=False)
    args: tuple[Any, ...] = field(compare=False, default=())
    cancelled: bool = field(compare=False, default=False)

    def cancel(self) -> None:
        """Prevent the event from firing; it stays in the queue inert."""
        self.cancelled = True


class Simulator:
    """A deterministic discrete-event loop over virtual nanoseconds."""

    def __init__(self, start_ns: float = 0.0,
                 ctx: "SimContext | None" = None) -> None:
        # With a context, the simulator drives the *shared* clock
        # instead of constructing a private one (one clock per run).
        if ctx is not None:
            self.clock = ctx.bind_clock(ctx.clock, owner="simulator")
            if start_ns > self.clock.now:
                self.clock.advance_to(start_ns)
        else:
            self.clock = SimClock(start_ns)
        self._queue: list[tuple] = []
        self._seq = itertools.count()
        self._dispatched = 0

    @property
    def now(self) -> float:
        """Current virtual time in ns."""
        return self.clock.now

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) entries still queued."""
        return sum(
            1 for entry in self._queue
            if type(entry[2]) is not Event or not entry[2].cancelled
        )

    @property
    def dispatched(self) -> int:
        """Total number of entries executed so far."""
        return self._dispatched

    def at(self, time_ns: float, callback: Callable[..., None],
           *args: Any) -> Event:
        """Schedule *callback* at the absolute virtual time *time_ns*."""
        if time_ns < self.clock.now:
            raise SimulationError(
                f"cannot schedule in the past: now={self.clock.now},"
                f" requested={time_ns}"
            )
        time_ns = float(time_ns)
        event = Event(time_ns, next(self._seq), callback, args)
        heapq.heappush(self._queue, (time_ns, event.seq, event))
        return event

    def after(self, delay_ns: float, callback: Callable[..., None],
              *args: Any) -> Event:
        """Schedule *callback* after a relative delay."""
        if delay_ns < 0:
            raise SimulationError(f"negative delay: {delay_ns}")
        return self.at(self.clock.now + delay_ns, callback, *args)

    def schedule(self, time_ns: float, item: Any) -> None:
        """Queue a bare payload at *time_ns* — the lean wakeup path.

        No :class:`Event` is allocated and nothing is returned, so the
        entry cannot be cancelled; consume it with :meth:`pop_due`.
        Used by the concurrent session scheduler, which re-arms one
        wakeup per session quantum and never cancels them.
        """
        if time_ns < self.clock.now:
            raise SimulationError(
                f"cannot schedule in the past: now={self.clock.now},"
                f" requested={time_ns}"
            )
        heapq.heappush(self._queue, (time_ns, next(self._seq), item))

    def pop_due(self) -> list:
        """Advance to the next instant and pop *every* entry there.

        Returns the (possibly empty) list of items queued at the
        earliest pending timestamp, in push order — the bulk ready-set
        drain: equal-instant arrivals come back as one batch without a
        heap peek per pop, so the caller can order them by policy
        instead of by heap accidents. Cancelled :class:`Event` entries
        are skipped; live ones are returned *undispatched* (their
        callbacks are the caller's responsibility).
        """
        queue = self._queue
        pop = heapq.heappop
        while queue:
            time_ns, _, item = pop(queue)
            if type(item) is Event and item.cancelled:
                continue
            batch = [item]
            while queue and queue[0][0] == time_ns:
                nxt = pop(queue)[2]
                if type(nxt) is Event and nxt.cancelled:
                    continue
                batch.append(nxt)
            self.clock.advance_to(time_ns)
            self._dispatched += len(batch)
            return batch
        return []

    def step(self) -> bool:
        """Dispatch the next live event. Returns False if none remain."""
        while self._queue:
            _, _, event = heapq.heappop(self._queue)
            if type(event) is Event:
                if event.cancelled:
                    continue
                self.clock.advance_to(event.time_ns)
                event.callback(*event.args)
            else:
                raise SimulationError(
                    "step() popped a lean entry (scheduled with"
                    " schedule()); drain those with pop_due()"
                )
            self._dispatched += 1
            return True
        return False

    def run(self, until_ns: float | None = None,
            max_events: int = 10_000_000) -> int:
        """Run events until the queue drains or *until_ns* is reached.

        Returns the number of events dispatched by this call. The
        *max_events* guard turns accidental infinite self-rescheduling
        into a loud error instead of a hang.
        """
        dispatched = 0
        while self._queue:
            head = self._peek()
            if head is None:
                break
            if until_ns is not None and head[0] > until_ns:
                break
            if not self.step():
                break
            dispatched += 1
            if dispatched > max_events:
                raise SimulationError(
                    f"exceeded {max_events} events; runaway simulation?"
                )
        if until_ns is not None and self.clock.now < until_ns:
            self.clock.advance_to(until_ns)
        return dispatched

    def advance_to(self, time_ns: float, dispatched: int) -> None:
        """Account for *dispatched* entries a caller ordered and ran
        itself, the last of them at *time_ns*.

        For a loop that merges streams it already holds in time order
        instead of queueing one event per entry (the churn simulator):
        afterwards :attr:`now` and :attr:`dispatched` read as if the
        entries had gone through the queue. Refuses to move past a
        live queued entry, which would then never fire in order.
        """
        if dispatched < 0:
            raise SimulationError(f"negative event count: {dispatched}")
        head = self._peek()
        if head is not None and head[0] < time_ns:
            raise SimulationError(
                f"cannot advance to {time_ns} past an entry queued at"
                f" {head[0]}"
            )
        self.clock.advance_to(time_ns)
        self._dispatched += dispatched

    def peek_time_ns(self) -> float | None:
        """Timestamp of the next live entry, or None when drained.

        The concurrent session scheduler uses this to decide whether
        the session it just ran is still the sole runnable one (its
        cursor strictly precedes every queued wakeup), which lets it
        re-run the session without a heap round-trip.
        """
        head = self._peek()
        return head[0] if head is not None else None

    def _peek(self) -> tuple | None:
        """Return the next live entry without dispatching it."""
        queue = self._queue
        while queue:
            item = queue[0][2]
            if type(item) is Event and item.cancelled:
                heapq.heappop(queue)
                continue
            return queue[0]
        return None
