"""Concurrent session scheduler: determinism, fairness, contention."""

import random

import numpy as np
import pytest

from repro.core import (
    ClientSession,
    ConcurrentEngine,
    DbCostPolicy,
    RoundRobinPolicy,
    ScaleUpEngine,
    StaticPolicy,
    WeightedPolicy,
)
from repro.core.buffer import _LOG_SETTLE, _RES_MAX_PIDS
from repro.errors import ConfigError
from repro.sim.bandwidth import WaitQueue
from repro.sim.clock import SimClock
from repro.sim.context import SimContext
from repro.sim.trace import MemoryTraceSink
from repro.workloads import (
    Access,
    AccessBlock,
    YCSBConfig,
    mixed_htap_blocks,
    mixed_htap_trace,
    scan_trace,
    ycsb_blocks,
)
from tests.core.residency import frame_rows
from tests.oracle.reference import reference


def cxl_engine(pages=2_000, fast=True, warm=None, placement=None):
    ctx = SimContext()
    engine = ScaleUpEngine.build(
        dram_pages=1, cxl_pages=pages,
        placement=placement or StaticPolicy(lambda _p: 1),
        with_storage=False, ctx=ctx,
    )
    for page in range(pages - 8 if warm is None else warm):
        engine.pool.access(page)
    return engine if fast else reference(engine)


def htap_engine(fast=True):
    """Small DRAM + CXL under the cost policy: live faults and
    migrations, the hard case for lane identity."""
    ctx = SimContext()
    engine = ScaleUpEngine.build(
        dram_pages=256, cxl_pages=2_000,
        placement=DbCostPolicy(), with_storage=False, ctx=ctx,
    )
    return engine if fast else reference(engine)


def point_trace(seed, ops=400, pages=1_000, think_ns=100.0):
    rng = random.Random(seed)
    return [Access(page_id=rng.randrange(pages), think_ns=think_ns)
            for _ in range(ops)]


def readahead_scan(first_page, num_pages, repeats=1, chunk_pages=16):
    out = []
    for _ in range(repeats):
        for start in range(0, num_pages, chunk_pages):
            out.append(Access(
                page_id=first_page + start, is_scan=True,
                nbytes=chunk_pages * 4096, think_ns=0.0,
            ))
    return out


def pool_digest(engine):
    """Every float the pool accumulated, repr'd (bit-exact)."""
    stats = engine.pool.stats
    return (
        repr(engine.pool.clock.now),
        repr(stats.demand_time_ns),
        repr(stats.fault_time_ns),
        repr(stats.migration_time_ns),
        stats.accesses, stats.misses, stats.migrations,
        tuple(tier.hits for tier in stats.per_tier),
    )


def run_digest(engine, report):
    """EngineReport floats + pool state, repr'd."""
    return (
        report.ops,
        repr(report.total_ns), repr(report.demand_ns),
        repr(report.think_ns),
        report.misses, report.migrations,
    ) + pool_digest(engine)


def sessions_digest(engine, report):
    """SessionRunReport floats + pool state, repr'd. Collapsed to the
    same shape as :func:`run_digest` for the N=1 identity checks."""
    session = next(iter(report.sessions.values()))
    return (
        session.ops,
        repr(session.total_ns), repr(session.demand_ns),
        repr(session.think_ns),
        session.misses, session.migrations,
    ) + pool_digest(engine)


TRACES = {
    # A think time that is not a dyadic fraction: its sum depends on
    # the order of the additions, so only the scalar chain matches.
    "oltp-points": lambda: point_trace(7, ops=600, think_ns=12.7),
    "olap-scan": lambda: scan_trace(0, 1_500, repeats=2),
    "htap-scalar": lambda: mixed_htap_trace(
        oltp_pages=600, olap_pages=800, oltp_ops=3_000, seed=3),
    "htap-blocks": lambda: mixed_htap_blocks(
        oltp_pages=600, olap_pages=800, oltp_ops=3_000, seed=3),
}


class TestSingleSessionIdentity:
    """A one-session run is byte-identical to ScaleUpEngine.run."""

    @pytest.mark.parametrize("fast", [True, False],
                             ids=["fast-lane", "compat-lane"])
    @pytest.mark.parametrize("kind", ["oltp-points", "olap-scan"])
    def test_static_pinning(self, kind, fast):
        baseline = cxl_engine(fast=fast)
        sessions = cxl_engine(fast=fast)
        ref = baseline.run(TRACES[kind]())
        rep = sessions.run_sessions([TRACES[kind]()])
        assert sessions_digest(sessions, rep) == \
            run_digest(baseline, ref)

    @pytest.mark.parametrize("fast", [True, False],
                             ids=["fast-lane", "compat-lane"])
    @pytest.mark.parametrize("kind", ["htap-scalar", "htap-blocks"])
    def test_with_faults_and_migrations(self, kind, fast):
        baseline = htap_engine(fast=fast)
        sessions = htap_engine(fast=fast)
        ref = baseline.run(TRACES[kind]())
        rep = sessions.run_sessions([TRACES[kind]()])
        assert ref.misses > 0  # the trace must exercise the fault path
        assert sessions_digest(sessions, rep) == \
            run_digest(baseline, ref)

    def test_identity_at_any_morsel_quantum(self):
        baseline = cxl_engine()
        ref_digest = run_digest(baseline, baseline.run(TRACES["olap-scan"]()))
        for quantum in (1, 7, 256):
            engine = cxl_engine()
            rep = engine.run_sessions([TRACES["olap-scan"]()],
                                      morsel_ops=quantum)
            assert sessions_digest(engine, rep) == ref_digest


def mixed_session_set():
    return [
        ClientSession("point-a", point_trace(1, ops=300)),
        ClientSession("point-b", point_trace(2, ops=300)),
        ClientSession("scan-a", readahead_scan(1_000, 800, repeats=2)),
        ClientSession("scan-b", readahead_scan(1_000, 800, repeats=2)),
    ]


def report_digest(report):
    parts = [repr(report.makespan_ns), report.policy]
    for name in sorted(report.sessions):
        s = report.sessions[name]
        parts.append((
            name, s.ops, repr(s.demand_ns), repr(s.think_ns),
            repr(s.wait_ns), repr(s.end_ns), s.misses, s.migrations,
            s.quanta, tuple(s.samples),
        ))
    return tuple(parts)


class TestDeterminism:
    def test_session_permutation_invariance(self):
        def run(order):
            engine = cxl_engine(pages=4_000)
            sessions = mixed_session_set()
            return report_digest(
                engine.run_sessions([sessions[i] for i in order]))

        first = run([0, 1, 2, 3])
        assert run([3, 1, 0, 2]) == first
        assert run([2, 3, 1, 0]) == first

    def test_lanes_equivalent_under_contention(self):
        def run(fast):
            engine = cxl_engine(pages=4_000, fast=fast)
            report = engine.run_sessions(mixed_session_set())
            assert report.wait_ns > 0  # contention must be live
            return report_digest(report) + pool_digest(engine)

        assert run(True) == run(False)

    def test_repeat_runs_identical(self):
        def run():
            engine = cxl_engine(pages=4_000)
            return report_digest(engine.run_sessions(mixed_session_set()))

        assert run() == run()


class TestWaitQueue:
    def test_equal_timestamp_fifo(self):
        """Two arrivals at the same instant serialize in grant order:
        the second waits exactly one service time behind the first."""
        queue = WaitQueue("link", read_bandwidth=64 * 2 ** 30)
        nbytes = 1 << 20
        service = queue.read_table.time_ns(nbytes)

        assert queue.delay_ns(0.0) == 0.0
        queue.occupy_run(0.0, nbytes)
        first_free = queue.free_at_ns
        assert first_free == service

        # Same-timestamp second arrival queues behind the first.
        wait = queue.delay_ns(0.0)
        assert wait == service
        queue.occupy_run(0.0 + wait, nbytes)
        assert queue.free_at_ns == 2 * service
        assert queue.snapshot()["grants"] == 2

    def test_late_arrival_no_residual_wait(self):
        queue = WaitQueue("link", read_bandwidth=64 * 2 ** 30)
        queue.occupy_run(0.0, 1 << 20)
        assert queue.delay_ns(queue.free_at_ns + 1.0) == 0.0

    def test_run_occupancy_accounts_all_members(self):
        queue = WaitQueue("dev", read_bandwidth=64 * 2 ** 30)
        queue.occupy_run(0.0, 4096, count=8)
        snap = queue.snapshot()
        assert snap["grants"] == 8
        assert snap["bytes"] == 8 * 4096
        # free_at reflects the *last* member only; the run's earlier
        # members completed inside the caller's accumulated latency.
        assert queue.free_at_ns == queue.read_table.time_ns(4096)


class TestContention:
    def test_p95_monotonic_in_session_count(self):
        """Bandwidth-bound scan mix: point-lookup tail latency grows
        monotonically with the number of contending scan sessions."""
        def p95_with_scans(num_scans):
            engine = cxl_engine(pages=8_000, warm=7_000)
            points = [ClientSession(f"pt-{i}", point_trace(i, pages=1_000))
                      for i in range(2)]
            scans = [ClientSession(
                f"scan-{i}",
                readahead_scan(1_000 + i * 1_500, 1_500, repeats=3))
                for i in range(num_scans)]
            report = engine.run_sessions(points + scans)
            return report.p95_for(["pt-0", "pt-1"])

        curve = [p95_with_scans(n) for n in (0, 1, 2, 4)]
        assert curve == sorted(curve)
        assert curve[-1] > 1.3 * curve[0]

    def test_wait_attributed_to_sessions(self):
        engine = cxl_engine(pages=4_000)
        report = engine.run_sessions(mixed_session_set())
        assert report.wait_ns > 0
        assert report.wait_ns == pytest.approx(
            sum(s.wait_ns for s in report.sessions.values()))
        assert report.makespan_ns > 0
        assert report.throughput_ops_per_s > 0


class TestFairnessPolicies:
    def test_round_robin_deterministic(self):
        def run():
            engine = cxl_engine(pages=4_000)
            return report_digest(engine.run_sessions(
                mixed_session_set(), policy=RoundRobinPolicy()))

        first = run()
        assert first == run()
        assert first[1] == "round_robin"

    def test_weighted_share_follows_weight(self):
        """Under stride scheduling a weight-4 session finishes the
        same work sooner than its weight-1 twin."""
        engine = cxl_engine(pages=4_000)
        trace = lambda: readahead_scan(0, 1_500, repeats=4)
        report = engine.run_sessions(
            [ClientSession("heavy", trace(), weight=4.0),
             ClientSession("light", trace(), weight=1.0)],
            policy=WeightedPolicy(), morsel_ops=8)
        heavy = report.session("heavy")
        light = report.session("light")
        assert heavy.ops == light.ops
        assert heavy.end_ns < light.end_ns

    def test_weighted_permutation_invariant(self):
        def run(flip):
            engine = cxl_engine(pages=4_000)
            pair = [ClientSession("a", point_trace(1), weight=3.0),
                    ClientSession("b", point_trace(2), weight=1.0)]
            if flip:
                pair.reverse()
            return report_digest(engine.run_sessions(
                pair, policy=WeightedPolicy()))

        assert run(False) == run(True)


class TestSessionApi:
    def test_raw_traces_get_positional_names(self):
        engine = cxl_engine()
        report = engine.run_sessions(
            [point_trace(0, ops=50), point_trace(1, ops=50)])
        assert sorted(report.sessions) == ["s00", "s01"]
        assert report.num_sessions == 2
        assert report.ops == 100

    def test_empty_session_set_rejected(self):
        engine = cxl_engine()
        with pytest.raises(ConfigError):
            engine.run_sessions([])

    def test_duplicate_names_rejected(self):
        engine = cxl_engine()
        with pytest.raises(ConfigError):
            engine.run_sessions([
                ClientSession("dup", point_trace(0, ops=10)),
                ClientSession("dup", point_trace(1, ops=10)),
            ])

    def test_bad_session_params_rejected(self):
        with pytest.raises(ConfigError):
            ClientSession("", point_trace(0, ops=10))
        # A NaN weight turned WeightedPolicy's pass values NaN.
        for weight in (0.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                ClientSession("s", point_trace(0, ops=10), weight=weight)
        # morsel_ops is a count: 0.5 used to truncate to a zero budget.
        engine = cxl_engine()
        for morsel_ops in (0, 0.5, float("nan"), True, -1):
            with pytest.raises(ConfigError):
                ConcurrentEngine(engine.pool, morsel_ops=morsel_ops)

    def test_foreign_context_rejected(self):
        engine = cxl_engine()
        with pytest.raises(ConfigError):
            ConcurrentEngine(engine.pool, ctx=SimContext())

    def test_unknown_session_name_rejected(self):
        engine = cxl_engine()
        report = engine.run_sessions([point_trace(0, ops=20)])
        with pytest.raises(ConfigError):
            report.session("nope")

    def test_morsel_hook_fires_per_quantum(self):
        calls = []
        engine = cxl_engine()
        executor = ConcurrentEngine(
            engine.pool, morsel_ops=16,
            on_morsel=lambda name, morsel: calls.append((name, morsel)))
        report = executor.run([ClientSession("q", point_trace(0, ops=64))])
        assert len(calls) == report.session("q").quanta
        assert all(name == "q" for name, _ in calls)
        assert all(m.service_ns > 0 for _, m in calls)

    def test_session_run_metrics_emitted(self):
        engine = cxl_engine()
        engine.run_sessions([point_trace(0, ops=20)])
        metrics = engine.pool.ctx.metrics
        assert metrics.get("engine.session_runs") == 1
        assert metrics.get("engine.sessions") == 1


# -- the deferred hit log --------------------------------------------------

def column_engine(columns, fast=True, traced=False):
    """One expander holding every page of *columns*, warmed scalar."""
    pages = sorted({int(p) for col in columns for p in np.unique(col)})
    ctx = SimContext(trace=MemoryTraceSink()) if traced else SimContext()
    engine = ScaleUpEngine.build(
        dram_pages=1, cxl_pages=len(pages) + 16,
        placement=StaticPolicy(lambda _p: 1), with_storage=False, ctx=ctx)
    for page in pages:
        engine.pool.access(page)
    return engine if fast else reference(engine)


def scan_session(name, ids):
    """A readahead scan over the id column *ids*, used as it is (no
    ``from_columns``: that would normalise the column under test)."""
    n = len(ids)
    return ClientSession(name, [AccessBlock(
        ids, np.zeros(n, bool), np.ones(n, bool),
        np.full(n, 16 * 4096), np.zeros(n))])


def settled_state(pool):
    """What the hit log settles: row stats, recency, heat."""
    return {
        "frames": frame_rows(pool),
        "recency": [tier.policy.order() for tier in pool.tiers],
        "heat": pool.tracker._harr.tolist(),
    }


class TestHitLog:
    def test_settled_frames_match_the_scalar_lane(self):
        """Two tiled scans and two YCSB-B sessions on disjoint page
        ranges: after the run the hit log has settled per-frame
        ``(accesses, last_access_ns, dirty)``, each tier's recency
        order and the tracker's heat to exactly what the scalar lane
        leaves, with or without a trace sink."""
        per = 400

        def sessions():
            out = [scan_session(f"scan-{i}", np.tile(
                np.arange(i * per, (i + 1) * per, 16, dtype=np.int64), 40))
                for i in range(2)]
            for i in range(2, 4):
                out.append(ClientSession(f"ycsb-{i}", [
                    AccessBlock(b.page_id + i * per, b.write, b.is_scan,
                                b.nbytes, b.think_ns)
                    for b in ycsb_blocks(YCSBConfig(
                        mix="B", num_pages=per, num_ops=3_000,
                        theta=0.9, seed=20 + i))]))
            return out

        def run(fast, traced=False):
            columns = [np.arange(4 * per)]
            engine = column_engine(columns, fast=fast, traced=traced)
            report = engine.run_sessions(sessions(), morsel_ops=64)
            assert report.wait_ns > 0
            assert not engine.pool._lazy_runs
            return engine.pool, report_digest(report) + pool_digest(engine)

        fast, fast_digest = run(True)
        ref, ref_digest = run(False)
        traced, traced_digest = run(True, traced=True)
        assert fast_digest == ref_digest == traced_digest
        assert any(row[3] for row in frame_rows(ref).values())
        state = settled_state(ref)
        assert settled_state(fast) == state
        assert settled_state(traced) == state
        lane = fast.lane.snapshot()
        assert lane == traced.lane.snapshot()
        assert lane["quantum_list_fallbacks"] == 0
        assert lane["log_settled_accesses"] == 2 * 40 * 25 + 2 * 3_000
        assert ref.lane.quantum_spans == ref.lane.log_settles == 0

    def test_shared_page_behind_the_pool_clock(self):
        """Two sessions touch the same pages, the second from a cursor
        behind the first's and behind the pool clock: the scalar lane's
        plain assignment leaves each page the *later touch's earlier*
        time, and so does the log, which writes ``last_ns`` in log
        order (the deferred fold used to keep ``max(ts)``)."""
        ids = np.arange(8, dtype=np.int64)

        def drive(fast):
            pool = column_engine([ids], fast=fast).pool
            warm = pool.clock.now
            for cursor in (SimClock(warm + 5_000.0), SimClock(10.0)):
                pool.session_begin(cursor, contended=False)
                pool.access_run(ids, write=cursor.now < warm)
                pool.session_end()
            return pool, warm

        (fast, warm), (ref, _) = drive(True), drive(False)
        assert (fast.lane.quantum_spans, ref.lane.quantum_spans) == (2, 0)
        rows = frame_rows(ref)
        assert frame_rows(fast) == rows
        assert all(10.0 <= last < warm and dirty
                   for _, _, last, dirty, _ in rows.values())

    @pytest.mark.parametrize("hook", [True, False])
    def test_log_is_bounded_and_empty_on_return(self, hook):
        """A 400 k-access run never holds more than the bound and
        leaves nothing owed (or pinned) in the pool, with a morsel
        hook or without one (the route is the same)."""
        ids = np.tile(np.arange(0, 1_600, dtype=np.int64), 250)
        engine = column_engine([ids])
        ConcurrentEngine(
            engine.pool, morsel_ops=64,
            on_morsel=(lambda name, morsel: None) if hook else None,
        ).run([scan_session("scan", ids)])
        pool = engine.pool
        assert not pool._lazy_runs and pool._log_held == 0
        lane = pool.lane
        assert lane.log_settled_accesses == len(ids) == 400_000
        assert len(ids) // _LOG_SETTLE <= lane.log_settles <= 8
        assert 0 < lane.log_high_water <= _LOG_SETTLE

    @pytest.mark.parametrize("segs", [
        [(2, 2, 64, False, False, 0.0)],
        [(0, 2, 64, False, False, 0.0), (2, 2, 64, True, False, 9.0),
         (2, 4, 4096, False, True, 0.0)],
    ], ids=["all-empty", "empty-between"])
    def test_zero_length_quantum_then_scalar_access(self, segs):
        """A quantum without accesses charges and logs nothing — it
        used to leave a 0-access log entry that the next scalar
        access's drain died on (numpy: minimum of a zero-size array) —
        and an empty segment still reports its boundary demand."""
        ids = np.arange(4, dtype=np.int64)
        quantum = column_engine([ids]).pool
        runs = column_engine([ids]).pool
        got = quantum.access_quantum(ids, segs, 1.5)
        want, bounds = 1.5, []
        for a, b, nbytes, write, is_scan, think in segs:
            want = runs.access_run(ids[a:b], nbytes, write, is_scan,
                                   think, want)
            bounds.append(want)
        assert got == (want, bounds)
        assert quantum._log_held == sum(b - a for a, b, *_ in segs)
        assert bool(quantum._lazy_runs) == bool(quantum._log_held)
        assert quantum.access(1) == runs.access(1)
        assert quantum.clock.now == runs.clock.now
        assert settled_state(quantum) == settled_state(runs)

    @pytest.mark.parametrize("kind", ["tile", "repeat-reshape", "strided",
                                      "int32", "beyond-table"])
    def test_any_id_column_is_charged_exactly(self, kind):
        """However a session's id column was built, the run equals the
        scalar lane's; views of a 2-D owner and strided views take the
        hit kernel, ids outside the dense table the scalar loop —
        counted."""
        def column(first):
            a = np.arange(first, first + 800, 16, dtype=np.int64)
            if kind == "tile":
                return np.tile(a, 6)
            if kind == "repeat-reshape":
                return np.repeat(a[None, :], 6, 0).reshape(-1)
            if kind == "strided":
                return np.ascontiguousarray(np.tile(a, 12))[::2]
            if kind == "int32":
                return np.tile(a, 6).astype(np.int32)
            return np.tile(a + _RES_MAX_PIDS, 6)

        def run(fast):
            columns = [column(0), column(800)]
            engine = column_engine(columns, fast=fast)
            report = engine.run_sessions(
                [scan_session(f"s{i}", col)
                 for i, col in enumerate(columns)], morsel_ops=64)
            assert report.wait_ns > 0
            return engine.pool, (report_digest(report), pool_digest(engine),
                                 settled_state(engine.pool))

        fast, fast_out = run(True)
        _, ref_out = run(False)
        assert fast_out == ref_out
        lane = fast.lane
        if kind == "beyond-table":
            assert lane.quantum_list_fallbacks == 10 and \
                lane.quantum_spans == 0
        elif kind != "int32":
            assert lane.quantum_list_fallbacks == 0 and \
                lane.quantum_spans == 10
