"""Transaction execution under two-phase locking.

A deterministic concurrency model shared by the scale-up and scale-out
engines: transactions are greedily scheduled onto worker threads; each
transaction computes its cost (lock operations + data accesses +
commit) from the engine's cost model, and a *timed* lock table makes
conflicting transactions wait for the holder's completion, exactly the
serialization 2PL would impose. Throughput falls out of the makespan.

This turns the paper's Sec 3.3 comparison — shared-memory locking at
CXL latency vs distributed locking and 2PC at RDMA latency — into a
direct, measurable contest.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

from ..errors import ConfigError, TransactionError
from ..sim.context import SimContext
from ..units import SECOND
from ..workloads.tpcc import RecordOp, Transaction


#: Expiry of a key nobody has held: earlier than any start.
_NEVER = -math.inf


class TimedLockTable:
    """Lock holds with expiry times instead of explicit release.

    A transaction scheduled to run in [start, finish) holds its locks
    until ``finish``. A later transaction needing an incompatible lock
    must start at or after that expiry, so its earliest start is the
    latest of its ready time and every conflicting expiry. Only the
    latest expiry per key can bind, so the table is two per-key floats:
    ``xmax``, the latest exclusive expiry (what a shared request waits
    on), and ``amax``, the latest expiry of any hold (what an exclusive
    request waits on). Nothing is pruned: an expired hold never binds.
    """

    def __init__(self) -> None:
        self.xmax: dict[object, float] = {}
        self.amax: dict[object, float] = {}
        self.waits = 0
        self.wait_time_ns = 0.0

    def earliest_start(self, exclusive: list[object], shared: list[object],
                       not_before_ns: float) -> float:
        """Earliest instant >= *not_before_ns* at which every lock is
        available: an *exclusive* key waits on every hold, a *shared*
        key on exclusive holds only."""
        start = not_before_ns
        amax = self.amax.get
        for key in exclusive:
            expiry = amax(key, _NEVER)
            if expiry > start:
                start = expiry
        xmax = self.xmax.get
        for key in shared:
            expiry = xmax(key, _NEVER)
            if expiry > start:
                start = expiry
        if start > not_before_ns:
            self.waits += 1
            self.wait_time_ns += start - not_before_ns
        return start

    def register(self, exclusive: list[object],
                 shared: list[object], expiry_ns: float) -> None:
        """Record the holds of a transaction that finishes at *expiry_ns*."""
        xmax, amax = self.xmax, self.amax
        for key in exclusive:
            if xmax.get(key, _NEVER) < expiry_ns:
                xmax[key] = expiry_ns
        for key in exclusive + shared:
            if amax.get(key, _NEVER) < expiry_ns:
                amax[key] = expiry_ns


@dataclass
class OLTPReport:
    """Outcome of an OLTP run."""

    name: str
    transactions: int = 0
    makespan_ns: float = 0.0
    busy_ns: float = 0.0
    lock_wait_ns: float = 0.0
    remote_ops: int = 0
    distributed_txns: int = 0
    threads: int = 1
    latency_sum_ns: float = 0.0

    @property
    def throughput_tps(self) -> float:
        """Committed transactions per second of virtual time."""
        if self.makespan_ns <= 0:
            return 0.0
        return self.transactions / self.makespan_ns * SECOND

    @property
    def mean_latency_ns(self) -> float:
        """Mean transaction latency (including lock waits)."""
        if self.transactions == 0:
            return 0.0
        return self.latency_sum_ns / self.transactions

    def __str__(self) -> str:
        return (
            f"OLTPReport({self.name}: {self.transactions:,} txns,"
            f" {self.throughput_tps:,.0f} tps,"
            f" mean={self.mean_latency_ns:.0f}ns,"
            f" waits={self.lock_wait_ns / max(self.makespan_ns, 1):.1%})"
        )


#: Computes the pure execution cost (ns) of one transaction,
#: excluding lock waits. Returns (cost_ns, remote_ops).
CostModel = Callable[[Transaction], tuple[float, int]]
#: Maps a record op to its lock key.
LockKeyFn = Callable[[RecordOp], object]


def default_lock_key(op: RecordOp) -> object:
    """Record-granularity lock key."""
    return (op.table, op.warehouse, op.key)


class TwoPhaseLockingExecutor:
    """Greedy 2PL scheduler over a fixed thread pool.

    Transactions are assigned to the least-loaded thread; each starts
    at the earliest instant its whole lock set is free (strict 2PL
    with waiting, no deadlocks because lock sets are acquired
    atomically at schedule time).
    """

    def __init__(self, cost_model: CostModel, threads: int = 8,
                 lock_key: LockKeyFn = default_lock_key,
                 name: str = "2pl",
                 ctx: SimContext | None = None) -> None:
        if threads <= 0:
            raise ConfigError("need at least one thread")
        self.cost_model = cost_model
        self.threads = threads
        self.lock_key = lock_key
        self.name = name
        self.lock_table = TimedLockTable()
        self.ctx = ctx
        self._last_report: OLTPReport | None = None
        if ctx is not None:
            ctx.register(f"oltp.{name}", self)

    def execute(self, transactions: list[Transaction]) -> OLTPReport:
        """Schedule all transactions; returns the run report."""
        if not transactions:
            raise TransactionError("no transactions to execute")
        # (clock, index): the least-loaded thread, first index on ties.
        clocks = [(0.0, thread) for thread in range(self.threads)]
        report = OLTPReport(name=self.name, threads=self.threads)
        table = self.lock_table
        for txn in transactions:
            ready, thread = clocks[0]
            exclusive, shared = self._lock_set(txn)
            start = table.earliest_start(exclusive, shared, ready)
            cost, remote_ops = self.cost_model(txn)
            finish = start + cost
            table.register(exclusive, shared, finish)
            heapq.heapreplace(clocks, (finish, thread))
            report.transactions += 1
            report.busy_ns += cost
            report.lock_wait_ns += start - ready
            report.latency_sum_ns += finish - ready
            report.remote_ops += remote_ops
            if txn.remote:
                report.distributed_txns += 1
        report.makespan_ns = max(clock for clock, _ in clocks)
        self._last_report = report
        ctx = self.ctx
        if ctx is not None:
            if ctx.trace.enabled:
                ctx.trace.emit_span(
                    f"oltp:{self.name}", "txn", 0.0, report.makespan_ns,
                    {"transactions": report.transactions,
                     "threads": report.threads},
                )
            ctx.metrics.incr(f"oltp.{self.name}.executions")
        return report

    def snapshot(self) -> dict:
        """Scheduler accounting (metrics snapshot protocol)."""
        snap: dict = {
            "threads": self.threads,
            "lock_waits": self.lock_table.waits,
            "lock_wait_time_ns": self.lock_table.wait_time_ns,
        }
        report = self._last_report
        if report is not None:
            snap["transactions"] = report.transactions
            snap["makespan_ns"] = report.makespan_ns
            snap["busy_ns"] = report.busy_ns
            snap["remote_ops"] = report.remote_ops
            snap["distributed_txns"] = report.distributed_txns
        return snap

    def _lock_set(self, txn: Transaction
                  ) -> tuple[list[object], list[object]]:
        """(exclusive, shared) lock keys; a key also written may sit in
        both, its shared entry then changes no wait and no hold."""
        lock_key = self.lock_key
        exclusive: list[object] = []
        shared: list[object] = []
        for op in txn.ops:
            (exclusive if op.write else shared).append(lock_key(op))
        return exclusive, shared
