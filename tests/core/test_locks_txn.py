"""Lock table semantics and the 2PL executor."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.locks import LockMode, LockTable
from repro.core.txn import (
    OLTPReport,
    TimedLockTable,
    TwoPhaseLockingExecutor,
    default_lock_key,
)
from repro.errors import ConfigError, TransactionError
from repro.workloads.tpcc import RecordOp, TPCCLite, Transaction


class TestLockTable:
    def test_shared_locks_compatible(self):
        table = LockTable()
        assert table.try_acquire(1, "k", LockMode.SHARED)
        assert table.try_acquire(2, "k", LockMode.SHARED)
        assert table.holders_of("k") == {1, 2}

    def test_exclusive_blocks_everyone(self):
        table = LockTable()
        assert table.try_acquire(1, "k", LockMode.EXCLUSIVE)
        assert not table.try_acquire(2, "k", LockMode.SHARED)
        assert not table.try_acquire(2, "k", LockMode.EXCLUSIVE)
        assert table.stats.conflicts == 2

    def test_shared_blocks_exclusive(self):
        table = LockTable()
        table.try_acquire(1, "k", LockMode.SHARED)
        assert not table.try_acquire(2, "k", LockMode.EXCLUSIVE)

    def test_reacquire_is_free(self):
        table = LockTable()
        table.try_acquire(1, "k", LockMode.EXCLUSIVE)
        assert table.try_acquire(1, "k", LockMode.EXCLUSIVE)
        assert table.try_acquire(1, "k", LockMode.SHARED)

    def test_upgrade_sole_holder(self):
        table = LockTable()
        table.try_acquire(1, "k", LockMode.SHARED)
        assert table.try_acquire(1, "k", LockMode.EXCLUSIVE)
        assert table.mode_of("k") is LockMode.EXCLUSIVE
        assert table.stats.upgrades == 1

    def test_upgrade_with_other_sharers_fails(self):
        table = LockTable()
        table.try_acquire(1, "k", LockMode.SHARED)
        table.try_acquire(2, "k", LockMode.SHARED)
        assert not table.try_acquire(1, "k", LockMode.EXCLUSIVE)

    def test_release_all(self):
        table = LockTable()
        table.try_acquire(1, "a", LockMode.SHARED)
        table.try_acquire(1, "b", LockMode.EXCLUSIVE)
        assert table.release_all(1) == 2
        assert table.active_locks == 0
        assert table.try_acquire(2, "b", LockMode.EXCLUSIVE)

    def test_release_keeps_other_holders(self):
        table = LockTable()
        table.try_acquire(1, "k", LockMode.SHARED)
        table.try_acquire(2, "k", LockMode.SHARED)
        table.release_all(1)
        assert table.holders_of("k") == {2}

    def test_held_count(self):
        table = LockTable()
        table.try_acquire(1, "a", LockMode.SHARED)
        table.try_acquire(1, "b", LockMode.SHARED)
        assert table.held_count(1) == 2
        assert table.held_count(2) == 0

    def test_consistency_check_passes(self):
        table = LockTable()
        table.try_acquire(1, "a", LockMode.SHARED)
        table.try_acquire(2, "a", LockMode.SHARED)
        table.try_acquire(3, "b", LockMode.EXCLUSIVE)
        table.check_consistency()


class TestTimedLockTable:
    def test_no_conflict_starts_immediately(self):
        table = TimedLockTable()
        start = table.earliest_start(["k"], [], 10.0)
        assert start == 10.0

    def test_exclusive_hold_delays(self):
        table = TimedLockTable()
        table.register(["k"], [], expiry_ns=100.0)
        start = table.earliest_start([], ["k"], 10.0)
        assert start == 100.0
        assert table.waits == 1
        assert table.wait_time_ns == pytest.approx(90.0)

    def test_shared_holds_compatible(self):
        table = TimedLockTable()
        table.register([], ["k"], expiry_ns=100.0)
        start = table.earliest_start([], ["k"], 10.0)
        assert start == 10.0

    def test_shared_blocks_exclusive(self):
        table = TimedLockTable()
        table.register([], ["k"], expiry_ns=100.0)
        start = table.earliest_start(["k"], [], 10.0)
        assert start == 100.0

    def test_waits_for_latest_conflict(self):
        table = TimedLockTable()
        table.register(["a"], [], expiry_ns=50.0)
        table.register(["b"], [], expiry_ns=200.0)
        start = table.earliest_start([], ["a", "b"], 0.0)
        assert start == 200.0

    def test_expired_hold_never_binds(self):
        table = TimedLockTable()
        table.register(["k"], [], expiry_ns=50.0)
        start = table.earliest_start(["k"], [], 60.0)
        assert start == 60.0
        assert table.waits == 0

    def test_keeps_only_the_latest_expiry(self):
        table = TimedLockTable()
        table.register(["k"], [], expiry_ns=300.0)
        table.register(["k"], ["s"], expiry_ns=100.0)
        table.register([], ["k"], expiry_ns=400.0)
        assert table.xmax == {"k": 300.0}
        assert table.amax == {"k": 400.0, "s": 100.0}


class HoldListTable:
    """The lock table before it became two columns: every hold kept as
    a ``(mode, expiry)`` pair and scanned on each request, with expired
    holds pruned on demand. The reference the two columns must match."""

    def __init__(self):
        self.holds = {}
        self.waits = 0
        self.wait_time_ns = 0.0

    def earliest_start(self, keys, not_before_ns):
        start = not_before_ns
        for key, mode in keys:
            for hold_mode, expiry in self.holds.get(key, ()):
                if expiry <= start:
                    continue
                if mode is LockMode.EXCLUSIVE or \
                        hold_mode is LockMode.EXCLUSIVE:
                    start = expiry
        if start > not_before_ns:
            self.waits += 1
            self.wait_time_ns += start - not_before_ns
        return start

    def register(self, keys, expiry_ns):
        for key, mode in keys:
            self.holds.setdefault(key, []).append((mode, expiry_ns))

    def prune(self, now_ns):
        for key in list(self.holds):
            live = [h for h in self.holds[key] if h[1] > now_ns]
            if live:
                self.holds[key] = live
            else:
                del self.holds[key]


def reference_execute(cost_model, threads, transactions):
    """The executor loop before the ``(clock, index)`` heap: a
    ``min()`` over thread clocks, one mode per key, a prune every 512
    transactions."""
    clock = [0.0] * threads
    report = OLTPReport(name="reference", threads=threads)
    table = HoldListTable()
    for count, txn in enumerate(transactions, 1):
        thread = min(range(threads), key=clock.__getitem__)
        ready = clock[thread]
        modes = {}
        for op in txn.ops:
            key = default_lock_key(op)
            mode = LockMode.EXCLUSIVE if op.write else LockMode.SHARED
            if key not in modes or mode is LockMode.EXCLUSIVE:
                modes[key] = mode
        keys = list(modes.items())
        start = table.earliest_start(keys, ready)
        cost, remote_ops = cost_model(txn)
        finish = start + cost
        table.register(keys, finish)
        clock[thread] = finish
        report.transactions += 1
        report.busy_ns += cost
        report.lock_wait_ns += start - ready
        report.latency_sum_ns += finish - ready
        report.remote_ops += remote_ops
        report.distributed_txns += txn.remote
        if count % 512 == 0:
            table.prune(min(clock))
    report.makespan_ns = max(clock)
    return report, table


def _exact(report, table):
    return (report.transactions, repr(report.makespan_ns),
            repr(report.busy_ns), repr(report.lock_wait_ns),
            repr(report.latency_sum_ns), report.remote_ops,
            report.distributed_txns, table.waits, repr(table.wait_time_ns))


class TestTwoColumnsMatchHoldLists:
    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1), threads=st.integers(1, 9),
           count=st.integers(1, 1_200), keys=st.integers(1, 40),
           whole=st.booleans())
    @example(seed=1, threads=4, count=1_200, keys=12, whole=True)
    @example(seed=2, threads=9, count=1_100, keys=40, whole=False)
    def test_executor(self, seed, threads, count, keys, whole):
        # Whole-number costs tie thread clocks and expiries often, so the
        # first-index tie-break and the expiry comparisons are exercised;
        # past 512 transactions the reference prunes.
        rng = random.Random(seed)
        txns, costs = [], {}
        for i in range(count):
            txn = Transaction(i, "payment", 0)
            txn.ops = [RecordOp("t", 0, rng.randrange(keys),
                                write=rng.random() < 0.3)
                       for _ in range(rng.randrange(1, 6))]
            txn.remote = rng.random() < 0.1
            costs[i] = (float(rng.randrange(1, 6)) if whole
                        else rng.uniform(0.1, 5.0))
            txns.append(txn)

        def cost(txn):
            return costs[txn.txn_id], len(txn.ops) if txn.remote else 0

        executor = TwoPhaseLockingExecutor(cost, threads=threads)
        report = executor.execute(txns)
        assert _exact(report, executor.lock_table) == _exact(
            *reference_execute(cost, threads, txns))

    def test_tpcc_stream(self):
        txns = list(TPCCLite(num_warehouses=4, remote_probability=0.1,
                             seed=5).transactions(1_100))

        def cost(txn):
            return 100.0 + 37.5 * len(txn.ops), int(txn.remote)

        executor = TwoPhaseLockingExecutor(cost, threads=8)
        report = executor.execute(txns)
        assert report.lock_wait_ns > 0
        assert _exact(report, executor.lock_table) == _exact(
            *reference_execute(cost, 8, txns))

    @settings(max_examples=100)
    @given(calls=st.lists(st.tuples(
        st.booleans(),
        st.lists(st.tuples(st.integers(0, 5), st.booleans()), max_size=4),
        st.integers(0, 20).map(float)), max_size=40))
    def test_table(self, calls):
        # Any interleaving of requests and holds, in any time order (no
        # pruning: the columns need none and the reference does not
        # prune here).
        table, reference = TimedLockTable(), HoldListTable()
        for is_request, keys, at_ns in calls:
            exclusive = [k for k, write in keys if write]
            shared = [k for k, write in keys if not write]
            pairs = [(k, LockMode.EXCLUSIVE if write else LockMode.SHARED)
                     for k, write in keys]
            if is_request:
                assert table.earliest_start(exclusive, shared, at_ns) == \
                    reference.earliest_start(pairs, at_ns)
            else:
                table.register(exclusive, shared, at_ns)
                reference.register(pairs, at_ns)
        assert (table.waits, table.wait_time_ns) == (
            reference.waits, reference.wait_time_ns)


def _txn(txn_id, keys, write=True, home=0):
    txn = Transaction(txn_id, "payment", home)
    txn.ops = [RecordOp("t", home, k, write=write) for k in keys]
    return txn


def _flat_cost(txn):
    return 1_000.0 * len(txn.ops), 0


class TestTwoPhaseLockingExecutor:
    def test_disjoint_txns_run_in_parallel(self):
        executor = TwoPhaseLockingExecutor(_flat_cost, threads=4)
        txns = [_txn(i, [i]) for i in range(4)]
        report = executor.execute(txns)
        assert report.makespan_ns == pytest.approx(1_000.0)
        assert report.lock_wait_ns == 0.0

    def test_conflicting_txns_serialize(self):
        executor = TwoPhaseLockingExecutor(_flat_cost, threads=4)
        txns = [_txn(i, [7]) for i in range(4)]  # same key, all writes
        report = executor.execute(txns)
        assert report.makespan_ns == pytest.approx(4_000.0)
        assert report.lock_wait_ns > 0

    def test_readers_do_not_serialize(self):
        executor = TwoPhaseLockingExecutor(_flat_cost, threads=4)
        txns = [_txn(i, [7], write=False) for i in range(4)]
        report = executor.execute(txns)
        assert report.makespan_ns == pytest.approx(1_000.0)

    def test_throughput_math(self):
        report = OLTPReport(name="x", transactions=1_000,
                            makespan_ns=1e9)
        assert report.throughput_tps == pytest.approx(1_000.0)

    def test_more_threads_more_throughput(self):
        txns = [_txn(i, [i % 64]) for i in range(512)]
        slow = TwoPhaseLockingExecutor(_flat_cost, threads=2).execute(txns)
        fast = TwoPhaseLockingExecutor(_flat_cost, threads=16).execute(
            [_txn(i, [i % 64]) for i in range(512)]
        )
        assert fast.throughput_tps > slow.throughput_tps

    def test_empty_batch_rejected(self):
        executor = TwoPhaseLockingExecutor(_flat_cost)
        with pytest.raises(TransactionError):
            executor.execute([])

    def test_zero_threads_rejected(self):
        with pytest.raises(ConfigError):
            TwoPhaseLockingExecutor(_flat_cost, threads=0)

    def test_remote_txns_counted(self):
        def cost(txn):
            return 1_000.0, 3 if txn.remote else 0

        executor = TwoPhaseLockingExecutor(cost, threads=2)
        txns = [_txn(i, [i]) for i in range(4)]
        txns[0].remote = True
        report = executor.execute(txns)
        assert report.distributed_txns == 1
        assert report.remote_ops == 3
