"""Tenant arrival/departure churn against pooled CXL capacity.

Pond's population is not static: tenants arrive, hold pooled memory
for a lifetime, and leave. This module draws a deterministic seeded
Poisson arrival process and exponential lifetimes into the columnar
:class:`~repro.serving.tenants.TenantTable` (one bulk inverse-CDF draw
per column, CPython-faithful stream), then plays the population in
virtual time against a :class:`~repro.core.elastic.PagePool`:
admission waits when the pool is full, departures return pages after a
reclamation delay, and an optional
:class:`~repro.core.autoscale.ExpanderScaler` grows or shrinks the pool
as backlog builds and drains — pool occupancy, admission waits, and
reclamation are *simulated*, not assumed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush

import numpy as np

from ..core.autoscale import ExpanderScaler
from ..core.elastic import PagePool
from ..errors import ConfigError, SimulationError
from ..sim.events import Simulator
from ..units import SECOND, us
from ..workloads.mtrand import PyRandomStream
from .histogram import MergeableHistogram
from .tenants import TenantTable


@dataclass(frozen=True)
class ChurnConfig:
    """Arrival and lifetime process parameters."""

    arrival_rate_per_s: float = 2_000.0
    mean_lifetime_s: float = 60.0
    seed: int = 11

    def __post_init__(self) -> None:
        if self.arrival_rate_per_s <= 0:
            raise ConfigError("arrival rate must be positive")
        if self.mean_lifetime_s <= 0:
            raise ConfigError("mean lifetime must be positive")


def assign_churn(table: TenantTable, cfg: ChurnConfig) -> None:
    """Fill ``arrival_ns``/``departure_ns`` with one vectorised draw.

    Inter-arrival gaps are Exponential(rate) and lifetimes
    Exponential(mean), both via inverse-CDF over the CPython-faithful
    uniform stream — ``-log(1 - u)`` of consecutive stream draws, so
    the process is reproducible bit for bit from the seed alone.
    """
    n = len(table)
    stream = PyRandomStream(cfg.seed)
    u_gap = stream.sample(n)
    u_life = stream.sample(n)
    gaps_ns = -np.log1p(-u_gap) * (SECOND / cfg.arrival_rate_per_s)
    table.arrival_ns[:] = np.cumsum(gaps_ns)
    table.departure_ns[:] = table.arrival_ns + (
        -np.log1p(-u_life) * (cfg.mean_lifetime_s * SECOND))


def wait_histogram() -> MergeableHistogram:
    """Admission-wait grid: 100 ns to 100 s, ~5% resolution."""
    return MergeableHistogram(np.geomspace(100.0, 1e11, 421))


@dataclass
class ChurnReport:
    """Outcome of playing a churn process against the pool."""

    tenants: int = 0
    admitted: int = 0
    departed: int = 0
    waited: int = 0          # admitted only after queueing
    rejected: int = 0        # working set exceeds max pool capacity
    peak_queue: int = 0
    peak_leased_pages: int = 0
    final_capacity_pages: int = 0
    grows: int = 0
    shrinks: int = 0
    horizon_ns: float = 0.0
    wait_hist: MergeableHistogram = field(default_factory=wait_histogram)

    def wait_quantile(self, q: float) -> float:
        """Nearest-rank admission wait over *admitted* tenants (ns)."""
        if self.wait_hist.total == 0:
            return 0.0
        return self.wait_hist.quantile(q)


class ChurnSimulator:
    """Admit/evict a tenant table against a page pool in virtual time.

    Tenants are admitted in arrival order; a tenant that does not fit
    joins a FIFO queue (strict head-of-line: admission order never
    depends on tenant size). A departure returns the tenant's pages
    ``reclaim_ns`` after its lifetime ends — scrubbing and unmapping
    are not free — and then drains the queue. The optional scaler is
    consulted whenever backlog appears or a departure frees pages.
    """

    def __init__(self, table: TenantTable, pool: PagePool,
                 scaler: ExpanderScaler | None = None,
                 reclaim_ns: float = us(200.0)) -> None:
        if not 0.0 <= reclaim_ns < np.inf:
            raise ConfigError("reclaim_ns must be finite and non-negative")
        arrival, departure = table.arrival_ns, table.departure_ns
        if not ((arrival >= 0).all() and (departure >= arrival).all()
                and np.isfinite(departure).all()):
            raise ConfigError("need 0 <= arrival_ns <= departure_ns < inf")
        self.table = table
        self.pool = pool
        self.scaler = scaler
        self.reclaim_ns = reclaim_ns
        self.sim = Simulator()
        self.report = ChurnReport(tenants=len(table))

    def run(self, max_events: int | None = None) -> ChurnReport:
        """Play the whole table; returns the churn accounting.

        One loop merges two time-ordered streams: arrivals down a stable
        argsort of ``arrival_ns``, releases off one heap of ``(time_ns,
        seq, tenant)``. ``seq`` is issued as an event queue issues it —
        the next arrival's when an arrival is handled, before its
        admissions, then one per admission — so entries at one float
        instant resolve as ``sim`` would order them, and ``sim`` ends
        with the clock and event count that queue would have.
        """
        table, pool, scaler = self.table, self.pool, self.scaler
        n = len(table)
        if n == 0:
            raise ConfigError("cannot churn an empty tenant table")
        limit = max_events or max(10_000_000, 4 * n)
        order = np.argsort(table.arrival_ns, kind="stable")
        arrivals, tenants = table.arrival_ns[order].tolist(), order.tolist()
        arrival_ns = table.arrival_ns.tolist()
        pages = table.working_set_pages.tolist()
        hold_ns = (table.departure_ns - table.arrival_ns
                   + self.reclaim_ns).tolist()
        max_pages = pool.capacity_pages if scaler is None else (
            scaler.max_expanders * scaler.pages_per_expander)
        releases: list[tuple[float, int, int]] = []
        waiting: deque[int] = deque()
        waits: list[float] = []
        queued = rejected = peak_queue = events = pos = 0
        nxt = (arrivals[0], 0)   # the next arrival's (time_ns, seq)
        seq, now = 1, 0.0
        while True:
            if nxt is None and not releases:
                break
            departing = bool(releases) and (nxt is None or releases[0] < nxt)
            events += 1
            if events > limit:
                raise SimulationError(
                    f"exceeded {limit} events; runaway simulation?")
            if departing:
                now, _, i = heappop(releases)
                pool.release(i)
                consult = True
            else:
                now, i = nxt[0], tenants[pos]
                pos += 1
                nxt = (arrivals[pos], seq) if pos < n else None
                seq += 1
                want = pages[i]
                if want > max_pages:
                    rejected += 1
                    continue
                # The queue head never fits between events: only an
                # arrival at an empty queue may get in unaided.
                consult = bool(waiting) or want > pool.free_pages
                waiting.append(i)
                queued += want
            if consult and scaler is not None:
                scaler.decide(now, queued, pool.leased_pages)
                if scaler.capacity_pages != pool.capacity_pages:
                    pool.resize(scaler.capacity_pages)
            while waiting:
                i = waiting[0]
                want = pages[i]
                if want > pool.free_pages:
                    break
                waiting.popleft()
                queued -= want
                pool.lease(i, want)
                waits.append(now - arrival_ns[i])
                heappush(releases, (now + hold_ns[i], seq, i))
                seq += 1
            if len(waiting) > peak_queue:
                peak_queue = len(waiting)
        self.sim.advance_to(now, events)
        report = self.report
        # Every arrival was one event, every other event a release.
        report.admitted, report.departed = len(waits), events - n
        report.waited = sum(1 for wait in waits if wait > 0)
        report.rejected, report.peak_queue = rejected, peak_queue
        report.wait_hist.add_many(waits)
        report.peak_leased_pages = pool.peak_leased_pages
        report.final_capacity_pages = pool.capacity_pages
        report.horizon_ns = now
        if scaler is not None:
            report.grows, report.shrinks = scaler.grows, scaler.shrinks
        return report
