"""Concurrent session scheduler: determinism, name order, contention."""

import random

import numpy as np
import pytest

from repro.core import (
    ClientSession,
    ConcurrentEngine,
    DbCostPolicy,
    ScaleUpEngine,
    StaticPolicy,
)
from repro.core.buffer import _LOG_SETTLE, _RES_MAX_PIDS, TieredBufferPool
from repro.core.temperature import ExactTracker, SampledTracker
from repro.errors import ConfigError
from repro.sim.bandwidth import WaitQueue
from repro.sim.clock import SimClock
from repro.sim.context import SimContext
from repro.sim.trace import MemoryTraceSink
from repro.units import CACHE_LINE
from repro.workloads import (
    AccessBlock,
    YCSBConfig,
    mixed_htap_blocks,
    scan_blocks,
    ycsb_blocks,
)
from tests.core.residency import frame_rows
from tests.oracle.parent_kernel import parent_kernel
from tests.oracle.reference import reference
from tests.oracle.traces import accesses_to_blocks, mixed_htap_trace


def keep_heat(engine):
    """*engine* on a pool of the same tiers and placement that keeps
    an explicit :class:`ExactTracker` (the pool's own, if it keeps
    one). A StaticPolicy pool keeps no heat; the helpers that compare
    tracker state give theirs this one, so the tests still check that
    the hit log's settle feeds a tracker as the scalar lane does."""
    pool = engine.pool
    return ScaleUpEngine(TieredBufferPool(
        tiers=pool.tiers, backing=pool.backing, placement=pool.placement,
        tracker=pool.tracker or ExactTracker(),
        ctx=SimContext(trace=pool.ctx.trace)), name=engine.name)


def cxl_engine(pages=2_000, fast=True, warm=None, placement=None):
    engine = keep_heat(ScaleUpEngine.build(
        dram_pages=1, cxl_pages=pages,
        placement=placement or StaticPolicy(lambda _p: 1),
        with_storage=False,
    ))
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
    ids = [rng.randrange(pages) for _ in range(ops)]
    return [AccessBlock.from_columns(
        ids, np.zeros(ops, bool), np.zeros(ops, bool),
        np.full(ops, CACHE_LINE), np.full(ops, think_ns))]


def readahead_scan(first_page, num_pages, repeats=1, chunk_pages=16):
    ids = np.tile(np.arange(first_page, first_page + num_pages,
                            chunk_pages), repeats)
    n = len(ids)
    return [AccessBlock.from_columns(
        ids, np.zeros(n, bool), np.ones(n, bool),
        np.full(n, chunk_pages * 4096), np.zeros(n))]


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
    "olap-scan": lambda: scan_blocks(0, 1_500, repeats=2),
    # The frozen scalar generator's accesses, 4,096 to a block.
    "htap-scalar": lambda: accesses_to_blocks(mixed_htap_trace(
        oltp_pages=600, olap_pages=800, oltp_ops=3_000, seed=3)),
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


def tiered_engine(fast=True):
    """DRAM pages 0-127 and CXL pages 128-1,999, all warm."""
    engine = keep_heat(ScaleUpEngine.build(
        dram_pages=128, cxl_pages=2_000,
        placement=StaticPolicy(lambda p: 0 if p < 128 else 1),
        with_storage=False,
    ))
    for page in range(2_000):
        engine.pool.access(page)
    return engine if fast else reference(engine)


def tier_change_session(index, run, think_ns):
    """Readahead hits alternating *run* DRAM pages with *run* CXL
    pages, so a ``2 * run`` quantum is two *run*-access subsegments
    across a tier change."""
    ids = np.tile(np.concatenate((
        np.arange(run), np.arange(run) + 200 + index * run)), 8)
    n = len(ids)
    return ClientSession(f"tiers-{index}", [AccessBlock(
        ids, np.zeros(n, bool), np.ones(n, bool),
        np.full(n, 16 * 4096), np.full(n, think_ns))])


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
        """The hit kernel equals the scalar reference under live waits:
        the mixed set, then three sessions whose hit runs of exactly
        31, 32, 33, 63 or 64 accesses change tier mid-quantum, with
        think time and without."""
        def lane(fast, run=None, think=0.0):
            if run is None:
                engine = cxl_engine(pages=4_000, fast=fast)
                report = engine.run_sessions(mixed_session_set())
            else:
                engine = tiered_engine(fast)
                report = engine.run_sessions(
                    [tier_change_session(i, run, think) for i in range(3)],
                    morsel_ops=2 * run)
            assert report.wait_ns > 0  # contention must be live
            return engine.pool, (report_digest(report), pool_digest(engine),
                                 settled_state(engine.pool))

        assert lane(True)[1] == lane(False)[1]
        for run in (31, 32, 33, 63, 64):
            for think in (0.0, 12.7):
                fast, fast_out = lane(True, run, think)
                assert fast_out == lane(False, run, think)[1], (run, think)
                assert fast.lane.quantum_spans == 24

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

    def test_non_str_session_name_rejected(self):
        """Name order is the scheduling order: an int name used to
        die in the name sort with a bare ``TypeError``."""
        engine = cxl_engine()
        for name in (5, b"a", None):
            with pytest.raises(ConfigError, match="str name"):
                engine.run_sessions([ClientSession(name, point_trace(0)),
                                     ClientSession("b", point_trace(1))])

    def test_session_run_metrics_emitted(self):
        engine = cxl_engine()
        engine.run_sessions([point_trace(0, ops=20)])
        metrics = engine.pool.ctx.metrics
        assert metrics.get("engine.session_runs") == 1
        assert metrics.get("engine.sessions") == 1


# -- the deferred hit log --------------------------------------------------

def column_engine(columns, fast=True, traced=False, placement=None,
                  cold=False):
    """One expander holding every page of *columns*, warmed scalar
    (every other page left cold with *cold*)."""
    pages = sorted({int(p) for col in columns for p in np.unique(col)})
    ctx = SimContext(trace=MemoryTraceSink()) if traced else SimContext()
    engine = keep_heat(ScaleUpEngine.build(
        dram_pages=1, cxl_pages=len(pages) + 16,
        placement=placement or StaticPolicy(lambda _p: 1),
        with_storage=False, ctx=ctx))
    for page in pages[::2] if cold else pages:
        engine.pool.access(page)
    return engine if fast else reference(engine)


def scan_session(name, ids, write=False):
    """A readahead scan over the id column *ids*, used as it is (no
    ``from_columns``: that would normalise the column under test)."""
    n = len(ids)
    return ClientSession(name, [AccessBlock(
        ids, np.full(n, write), np.ones(n, bool),
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
        assert lane["quantum_scalar"] == {"id_range": 0, "headroom": 0,
                                          "miss": 0}
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
                pool.access_quantum(
                    ids, [(0, 8, 64, cursor.now < warm, False, 0.0)])
                pool.session_end()
            return pool, warm

        (fast, warm), (ref, _) = drive(True), drive(False)
        assert (fast.lane.quantum_spans, ref.lane.quantum_spans) == (2, 0)
        rows = frame_rows(ref)
        assert frame_rows(fast) == rows
        assert all(10.0 <= last < warm and dirty
                   for _, _, last, dirty in rows.values())

    @pytest.mark.parametrize("write", [True, False])
    def test_log_is_bounded_and_empty_on_return(self, write):
        """A 400 k-access run, of reads or of writes, never holds more
        than the bound and leaves nothing owed in the pool."""
        ids = np.tile(np.arange(0, 1_600, dtype=np.int64), 250)
        engine = column_engine([ids])
        ConcurrentEngine(engine.pool, morsel_ops=64).run(
            [scan_session("scan", ids, write=write)])
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
                                      "int32", "beyond-table", "miss",
                                      "rebalance"])
    def test_any_id_column_is_charged_exactly(self, kind):
        """However a session's id column was built, the run equals the
        scalar lane's; views of a 2-D owner and strided views take the
        hit kernel, ids outside the dense table the scalar loop —
        counted. So do quanta that miss (every other page cold) and
        quanta that straddle a cost-policy rebalance trigger."""
        def column(first):
            a = np.arange(first, first + 800, 16, dtype=np.int64)
            if kind in ("tile", "miss", "rebalance"):
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
            engine = column_engine(
                columns, fast=fast, cold=kind == "miss",
                placement=DbCostPolicy(rebalance_interval=100)
                if kind == "rebalance" else None)
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
        reason = {"beyond-table": "id_range", "miss": "miss",
                  "rebalance": "headroom"}.get(kind)
        if kind != "int32":
            scalar = {r: n for r, n in lane.quantum_scalar.items() if n}
            assert list(scalar) == ([reason] if reason else [])
            assert sum(scalar.values()) + lane.quantum_spans == 10
            assert kind != "beyond-table" or lane.quantum_spans == 0


# -- the hit kernel against the kernel it replaced ------------------------

class NotingPolicy(StaticPolicy):
    """Static placement whose batch note reads the scan flag (it is not
    ``scan_blind``), so it is owed one call per segment: it logs them."""

    def __init__(self, classifier):
        super().__init__(classifier)
        self.notes = []

    def note_accesses(self, page_ids, start, end, is_scan=False):
        self.notes.append((start, end, is_scan))


def kernel_pool(lane, tracker, note="blind"):
    """DRAM pages 0-63 and CXL pages 64-299, all warm, as the *lane*
    twin: the kernel, the parent kernel or the scalar reference."""
    def placement():
        return (StaticPolicy if note == "blind" else NotingPolicy)(
            lambda p: 0 if p < 64 else 1)

    pool = TieredBufferPool(
        tiers=ScaleUpEngine.build(dram_pages=64, cxl_pages=300,
                                  with_storage=False).pool.tiers,
        placement=placement(),
        # SampledTracker has no record_block: the settle feeds
        # record_batch per scan run.
        tracker=(ExactTracker() if tracker == "exact"
                 else SampledTracker(sample_rate=0.5)),
        ctx=SimContext())
    for page in range(300):
        pool.access(page)
    if lane == "parent":
        parent_kernel(pool)
    elif lane == "reference":
        reference(pool)
    return pool


def kernel_quanta(seed, n=3_000):
    """Quanta over one id column that crosses the DRAM/CXL boundary
    inside segments: 1-6 segments each, lengths from 0 (an empty
    segment, also between non-empty ones) to 40, every mix of write,
    scan, think time and size."""
    rng = random.Random(seed)
    runs = []
    while sum(map(len, runs)) < n:
        first = rng.choice([0, 40, 60, 64, 100, 250])
        runs.append(range(first, min(300, first + rng.randrange(1, 30))))
    ids = np.array([p for run in runs for p in run][:n], dtype=np.int64)
    quanta, pos = [], 0
    while pos < n:
        segs = []
        for _ in range(rng.randint(1, 6)):
            stop = min(n, pos + rng.choice([0, 0, 1, 2, 5, 17, 40]))
            segs.append((pos, stop, rng.choice([64, 4096, 65536]),
                         rng.random() < 0.3, rng.random() < 0.3,
                         rng.choice([0.0, 0.0, 12.7, 200.0])))
            pos = stop
        quanta.append(segs)
    return ids, quanta


def drive_kernel(lane, tracker, seed, note="blind"):
    """Run the quanta on three cursors that start together (the one
    furthest behind goes next), so the queues fold live waits; returns
    the pool and what the run left: every quantum's accumulators, the
    pool's floats and counters, device counters and settled state."""
    pool = kernel_pool(lane, tracker, note)
    ids, quanta = kernel_quanta(seed)
    cursors = [SimClock(pool.clock.now) for _ in range(3)]
    accums = [0.0, 0.0, 0.0]
    out = []
    for segs in quanta:
        which = min(range(3), key=lambda i: (cursors[i].now, i))
        pool.session_begin(cursors[which])
        accums[which], bounds = pool.access_quantum(ids, segs,
                                                    accums[which])
        pool.session_end()
        out.append((repr(accums[which]), list(map(repr, bounds))))
    rows = frame_rows(pool)  # settles the log first
    heat = (pool.tracker._harr.tolist() if tracker == "exact"
            else list(pool.tracker._heat.items()))
    return pool, (out, repr(pool.session_wait_ns),
                  [repr(c.now) for c in cursors],
                  repr(pool.stats.demand_time_ns), pool.stats.accesses,
                  [t.hits for t in pool.stats.per_tier],
                  [tier.path.device.stats.snapshot() for tier in pool.tiers],
                  rows, [tier.policy.order() for tier in pool.tiers], heat)


def queue_state(pool):
    return [(q.name, repr(q.free_at_ns), q.snapshot())
            for tier_queues in pool.wait_queues() for q in tier_queues]


class TestHitKernel:
    @pytest.mark.parametrize("tracker", ["exact", "sampled"])
    @pytest.mark.parametrize("note", ["blind", "per-segment"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_kernel_equals_the_parent_kernel_and_the_reference(
            self, seed, note, tracker):
        """Every float and counter of a contended run of mixed quanta —
        tier changes inside segments, empty segments, write, scan and
        think mixes — equals the parent kernel's, wait queues included
        (``free_at`` and every snapshot field, bit for bit), and the
        scalar reference's; the many-entry log settles to the
        reference's rows, dirty flags, recency and tracker heats. A
        note that reads the scan flag still gets one call per segment,
        in order."""
        fast, fast_out = drive_kernel("fast", tracker, seed, note)
        parent, parent_out = drive_kernel("parent", tracker, seed, note)
        ref, ref_out = drive_kernel("reference", tracker, seed, note)
        assert fast_out == parent_out == ref_out
        assert queue_state(fast) == queue_state(parent)
        if note == "per-segment":
            assert fast.placement.notes == parent.placement.notes
        assert float(fast_out[1]) > 0  # contention must be live
        assert fast.lane.quantum_spans == parent.lane.quantum_spans > 0
        assert sum(fast.lane.quantum_scalar.values()) == 0
        assert fast.lane.log_settles == 1
        assert any(row[3] for row in fast_out[7].values())
        ids, quanta = kernel_quanta(seed)

        def tiers(a, b):
            return len(set((ids[a:b] < 64).tolist()))

        assert any(tiers(a, b) == 2 for segs in quanta for a, b, *_ in segs)
        assert any(tiers(segs[0][0], segs[-1][1]) == 1 for segs in quanta)
        sizes = [[b - a for a, b, *_ in segs] for segs in quanta]
        assert any(n[i - 1] and not n[i] and n[i + 1]  # empty between
                   for n in sizes for i in range(1, len(n) - 1))
