"""Tenant arrival/departure churn against pooled CXL capacity.

Pond's population is not static: tenants arrive, hold pooled memory
for a lifetime, and leave. This module draws a deterministic seeded
Poisson arrival process and exponential lifetimes into the columnar
:class:`~repro.serving.tenants.TenantTable` (one bulk inverse-CDF draw
per column, CPython-faithful stream), then plays the population
through the discrete-event :class:`~repro.sim.events.Simulator`
against a :class:`~repro.core.elastic.PagePool`: admission waits when
the pool is full, departures return pages after a reclamation delay,
and an optional :class:`~repro.core.autoscale.ExpanderScaler` grows or
shrinks the pool as backlog builds and drains — pool occupancy,
admission waits, and reclamation are *simulated*, not assumed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..core.autoscale import ExpanderScaler
from ..core.elastic import PagePool
from ..errors import ConfigError
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
    """Admit/evict a tenant table against a page pool, event-driven.

    Tenants are admitted in arrival order; a tenant that does not fit
    joins a FIFO queue (strict head-of-line: admission order never
    depends on tenant size). A departure returns the tenant's pages
    ``reclaim_ns`` after its lifetime ends — scrubbing and unmapping
    are not free — and then drains the queue. The optional scaler is
    consulted whenever backlog appears or a departure frees pages.
    """

    def __init__(self, table: TenantTable, pool: PagePool,
                 scaler: ExpanderScaler | None = None,
                 reclaim_ns: float = us(200.0),
                 sim: Simulator | None = None) -> None:
        if reclaim_ns < 0:
            raise ConfigError("reclaim_ns must be non-negative")
        self.table = table
        self.pool = pool
        self.scaler = scaler
        self.reclaim_ns = reclaim_ns
        self.sim = sim or Simulator()
        # Every event reads these per tenant. A memoryview hands out
        # plain ints and floats without boxing a numpy scalar per read
        # and without a python object per tenant.
        self._order = memoryview(
            np.argsort(table.arrival_ns, kind="stable"))
        self._pages = memoryview(table.working_set_pages)
        self._arrival_ns = memoryview(table.arrival_ns)
        self._lifetime_ns = memoryview(table.departure_ns
                                       - table.arrival_ns)
        self._waiting: deque[int] = deque()
        self._queued_pages = 0
        self.report = ChurnReport(tenants=len(table))

    # -- capacity -----------------------------------------------------

    def _max_capacity(self) -> int:
        if self.scaler is None:
            return self.pool.capacity_pages
        return self.scaler.max_expanders * self.scaler.pages_per_expander

    def _consult_scaler(self) -> None:
        scaler = self.scaler
        if scaler is None:
            return
        scaler.decide(self.sim.now, self._queued_pages,
                      self.pool.leased_pages)
        if scaler.capacity_pages != self.pool.capacity_pages:
            self.pool.resize(scaler.capacity_pages)

    # -- events -------------------------------------------------------

    def _admit(self, i: int) -> None:
        self.pool.lease(i, self._pages[i])
        wait_ns = self.sim.now - self._arrival_ns[i]
        self.report.admitted += 1
        if wait_ns > 0:
            self.report.waited += 1
        self.report.wait_hist.add(wait_ns)
        self.sim.after(self._lifetime_ns[i] + self.reclaim_ns,
                       self._release, i)

    def _drain_queue(self) -> None:
        while self._waiting:
            head = self._waiting[0]
            pages = self._pages[head]
            if pages > self.pool.free_pages:
                break
            self._waiting.popleft()
            self._queued_pages -= pages
            self._admit(head)

    def _arrive(self, pos: int) -> None:
        i = self._order[pos]
        if pos + 1 < len(self._order):
            self.sim.at(self._arrival_ns[self._order[pos + 1]],
                        self._arrive, pos + 1)
        pages = self._pages[i]
        if pages > self._max_capacity():
            self.report.rejected += 1
            return
        self._waiting.append(i)
        self._queued_pages += pages
        self._drain_queue()
        if self._waiting:
            self._consult_scaler()
            self._drain_queue()
            self.report.peak_queue = max(self.report.peak_queue,
                                         len(self._waiting))

    def _release(self, i: int) -> None:
        self.pool.release(i)
        self.report.departed += 1
        self._consult_scaler()
        self._drain_queue()

    # -- the run ------------------------------------------------------

    def run(self, max_events: int | None = None) -> ChurnReport:
        """Play the whole table; returns the churn accounting."""
        if len(self.table) == 0:
            raise ConfigError("cannot churn an empty tenant table")
        self.sim.at(self._arrival_ns[self._order[0]], self._arrive, 0)
        self.sim.run(max_events=max_events or max(
            10_000_000, 4 * len(self.table)))
        report = self.report
        report.peak_leased_pages = self.pool.peak_leased_pages
        report.final_capacity_pages = self.pool.capacity_pages
        report.horizon_ns = self.sim.now
        if self.scaler is not None:
            report.grows = self.scaler.grows
            report.shrinks = self.scaler.shrinks
        return report
