"""Property tests for the extension modules: WAL, autoscaling,
morsel scheduling, and the 2PL executor."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.autoscale import Autoscaler, QueryJob
from repro.core.morsel import Morsel, RackScheduler
from repro.core.txn import TwoPhaseLockingExecutor
from repro.core.wal import BatteryDRAMLogBackend, WriteAheadLog
from repro.workloads.tpcc import RecordOp, Transaction


@given(arrivals=st.lists(st.floats(min_value=0, max_value=1e6,
                                   allow_nan=False),
                         min_size=1, max_size=100),
       group=st.integers(min_value=1, max_value=16))
@settings(max_examples=50, deadline=None)
def test_wal_commits_never_precede_appends(arrivals, group):
    """Every commit completes at or after the latest append it covers,
    and all records eventually commit after a final flush."""
    log = WriteAheadLog(BatteryDRAMLogBackend.build(), group_size=group)
    arrivals = sorted(arrivals)
    last_done = 0.0
    for t in arrivals:
        done = log.append(64, t)
        if done is not None:
            assert done >= t
            assert done >= last_done
            last_done = done
    log.flush(arrivals[-1])
    assert log.commit_latency.count == len(arrivals)
    assert log.commit_latency.min >= 0.0
    assert log.pending == 0


@given(jobs=st.lists(
    st.tuples(st.floats(min_value=0, max_value=1e8, allow_nan=False),
              st.floats(min_value=1, max_value=1e6, allow_nan=False)),
    min_size=1, max_size=80),
    mode=st.sampled_from(["fixed", "warm", "cold"]))
@settings(max_examples=50, deadline=None)
def test_autoscaler_serves_every_job_with_nonnegative_wait(jobs, mode):
    scaler = Autoscaler(mode=mode, min_workers=1, max_workers=8)
    report = scaler.run([
        QueryJob(arrival_ns=a, service_ns=s) for a, s in jobs
    ])
    assert report.jobs == len(jobs)
    assert all(wait >= 0 for wait in report.waits_ns)
    assert report.engine_time_ns > 0
    assert report.peak_workers <= 8


@given(morsel_sizes=st.lists(
    st.lists(st.floats(min_value=1, max_value=1e6, allow_nan=False),
             min_size=1, max_size=40),
    min_size=1, max_size=4),
    hosts=st.integers(min_value=1, max_value=4),
    threads=st.integers(min_value=1, max_value=4))
@settings(max_examples=50, deadline=None)
def test_morsel_schedulers_conserve_work(morsel_sizes, hosts, threads):
    """Makespan x threads >= total work >= makespan (one thread's
    share), for both schedulers, and every query completes."""
    queries = [
        [Morsel(query_id=q, service_ns=s) for s in sizes]
        for q, sizes in enumerate(morsel_sizes)
    ]
    total_work = sum(s for sizes in morsel_sizes for s in sizes)
    scheduler = RackScheduler(hosts=hosts, threads_per_host=threads,
                              dequeue_cost_ns=0.0)
    for outcome in (
        scheduler.run_static([list(q) for q in queries]),
        scheduler.run_shared_queue([list(q) for q in queries]),
    ):
        n_threads = hosts * threads
        assert outcome.makespan_ns * n_threads >= total_work - 1e-6
        assert outcome.makespan_ns <= total_work + 1e-6
        assert set(outcome.query_completion_ns) == \
            set(range(len(queries)))
        assert max(outcome.query_completion_ns.values()) == \
            pytest.approx(outcome.makespan_ns)


@given(txn_keys=st.lists(
    st.lists(st.integers(min_value=0, max_value=5), min_size=1,
             max_size=4),
    min_size=1, max_size=30),
    threads=st.integers(min_value=1, max_value=8))
@settings(max_examples=50, deadline=None)
def test_2pl_executor_conflict_serialization(txn_keys, threads):
    """Write-conflicting transactions never overlap in time; the
    makespan is bounded by total work (no lost work)."""
    txns = []
    for i, keys in enumerate(txn_keys):
        txn = Transaction(i, "payment", 0)
        txn.ops = [RecordOp("t", 0, k, write=True) for k in keys]
        txns.append(txn)
    per_txn = 1_000.0
    executor = TwoPhaseLockingExecutor(
        cost_model=lambda _t: (per_txn, 0), threads=threads,
    )
    report = executor.execute(txns)
    total_work = per_txn * len(txns)
    assert report.busy_ns == pytest.approx(total_work)
    assert report.makespan_ns >= per_txn
    assert report.makespan_ns <= total_work + 1e-6
    assert report.transactions == len(txns)
