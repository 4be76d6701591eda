"""Reference model for ``ChurnSimulator.run``: one event per tenant move.

This is the body the repository shipped before churn became a merge of
two sorted streams, kept as the specification the merge loop is tested
against. Every arrival and every release is a generic
:class:`~repro.sim.events.Simulator` event — an ``Event`` allocation,
a heap push and pop and a bound-method callback — so the event order is
exactly the simulator's ``(time, seq)`` order: FIFO among entries at
the same float instant, in the order they were scheduled.

Nothing in ``src/`` imports it.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.core.autoscale import ExpanderScaler
from repro.core.elastic import PagePool
from repro.errors import ConfigError
from repro.serving.churn import ChurnReport
from repro.serving.tenants import TenantTable
from repro.sim.events import Simulator
from repro.units import us


class ReferenceChurn:
    """Admit/evict a tenant table against a page pool, one event each."""

    def __init__(self, table: TenantTable, pool: PagePool,
                 scaler: ExpanderScaler | None = None,
                 reclaim_ns: float = us(200.0)) -> None:
        if reclaim_ns < 0:
            raise ConfigError("reclaim_ns must be non-negative")
        self.table = table
        self.pool = pool
        self.scaler = scaler
        self.reclaim_ns = reclaim_ns
        self.sim = Simulator()
        self._order = memoryview(
            np.argsort(table.arrival_ns, kind="stable"))
        self._pages = memoryview(table.working_set_pages)
        self._arrival_ns = memoryview(table.arrival_ns)
        self._lifetime_ns = memoryview(table.departure_ns
                                       - table.arrival_ns)
        self._waiting: deque[int] = deque()
        self._queued_pages = 0
        self.report = ChurnReport(tenants=len(table))

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

    def run(self, max_events: int | None = None) -> ChurnReport:
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
