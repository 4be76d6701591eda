"""Equivalence tests for the buffer pool's array lane on uniform runs.

The contract under test: ``access_run`` on an id ndarray (and
``engine.run`` on top of the block lane) produces **bit-identical**
simulated state to the scalar ``access`` loop — same clock floats,
same demand times, same frame metadata, same tracker heat, same
replacement order — across eviction, migration, and placement-trigger
boundaries. Not "close": ``==`` on every float. ``access_batch`` is
that scalar loop spelled for a python sequence; one contract test
pins its order, clock and input forms.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import ScaleUpEngine
from repro.core.placement import DbCostPolicy, OSPagingPolicy, StaticPolicy
from repro.core.replacement import LRUPolicy, make_policy
from repro.core.temperature import ExactTracker, SampledTracker
from repro.errors import BufferPoolError
from repro.sim.clock import SimClock
from repro.sim.interconnect import PREFETCH_DEPTH
from repro.units import CACHE_LINE, PAGE_SIZE
from repro.workloads.scans import mixed_htap_blocks, scan_blocks
from repro.workloads.ycsb import YCSBConfig
from tests.core.residency import frame_rows
from tests.oracle.reference import path_time, reference
from tests.oracle.traces import ycsb_trace


def _build(placement=None, dram_pages=32, cxl_pages=64):
    return ScaleUpEngine.build(
        dram_pages=dram_pages,
        cxl_pages=cxl_pages,
        placement=placement,
        name="equiv",
    )


def _tracker_state(tracker):
    if isinstance(tracker, (ExactTracker, SampledTracker)):
        return dict(tracker._heat), tracker._since_epoch
    return None


def _policy_state(policy):
    if isinstance(policy, LRUPolicy):
        return policy.order()
    return repr(policy)


def _pool_state(pool):
    """Every piece of simulated state a run can produce."""
    stats = pool.stats
    state = {
        "clock": pool.clock.now,
        "accesses": stats.accesses,
        "misses": stats.misses,
        "writebacks": stats.writebacks,
        "migrations": stats.migrations,
        "demand_time_ns": stats.demand_time_ns,
        "fault_time_ns": stats.fault_time_ns,
        "migration_time_ns": stats.migration_time_ns,
        "per_tier": [t.snapshot() for t in stats.per_tier],
        "frames": frame_rows(pool),
        "resident": list(pool._resident_counts),
        "tracker": _tracker_state(pool.tracker),
        "policies": [_policy_state(t.policy) for t in pool.tiers],
        "devices": [
            (t.path.device.stats.loads, t.path.device.stats.load_bytes,
             t.path.device.stats.stores, t.path.device.stats.store_bytes)
            for t in pool.tiers
        ],
    }
    placement = pool.placement
    if isinstance(placement, (DbCostPolicy, OSPagingPolicy)):
        state["placement_accesses"] = placement._accesses
    if isinstance(placement, OSPagingPolicy):
        state["sampler"] = _tracker_state(placement.tracker)
    return state


def _scalar_drive(pool, page_ids, nbytes=CACHE_LINE, write=False,
                  is_scan=False, think_ns=0.0, accum=0.0, clock=None):
    """The reference loop (on the pool clock, or a session *clock*)."""
    if clock is None:
        clock = pool.clock
    for pid in page_ids:
        if think_ns:
            clock.advance(think_ns)
        accum += pool.access(pid, nbytes=nbytes, write=write,
                             is_scan=is_scan)
    return accum


def _compare_drives(make_placement, runs, dram_pages=32, cxl_pages=64):
    """Drive two identical pools — one through the scalar loop, one
    through ``access_run`` on the columnarised ids — through the same
    access runs and require bit-identical end state."""
    scalar = _build(make_placement(), dram_pages, cxl_pages).pool
    array = _build(make_placement(), dram_pages, cxl_pages).pool
    total_scalar = 0.0
    total_array = 0.0
    for page_ids, kwargs in runs:
        total_scalar = _scalar_drive(scalar, page_ids,
                                     accum=total_scalar, **kwargs)
        total_array = array.access_run(
            np.asarray(page_ids, dtype=np.int64), accum=total_array,
            **kwargs)
    assert total_scalar == total_array
    assert _pool_state(scalar) == _pool_state(array)


def test_hit_path_equivalence():
    """Warm pool, every access a hit: the pure fast-path case."""
    pages = list(range(40))
    _compare_drives(
        DbCostPolicy,
        [
            (pages, {"nbytes": PAGE_SIZE, "is_scan": True}),
            (pages * 5, {}),
            (pages, {"write": True}),
        ],
    )


def test_eviction_boundary_equivalence():
    """More pages than capacity: faults and evictions inside runs."""
    cfg = YCSBConfig(mix="B", num_pages=200, num_ops=1500, seed=3)
    reads = [a.page_id for a in ycsb_trace(cfg) if not a.write]
    writes = [a.page_id for a in ycsb_trace(cfg) if a.write]
    _compare_drives(
        DbCostPolicy,
        [
            (reads, {}),
            (writes, {"write": True}),
            (list(range(200)), {"nbytes": PAGE_SIZE, "is_scan": True}),
        ],
        dram_pages=16,
        cxl_pages=48,
    )


def test_placement_trigger_equivalence():
    """Runs longer than the rebalance interval: the trigger access
    must fall out of the window and take the scalar path."""
    def make():
        return DbCostPolicy(rebalance_interval=64)
    pages = [pid % 50 for pid in range(3 * 64 + 7)]
    _compare_drives(make, [(pages, {})], dram_pages=8, cxl_pages=16)


def test_os_paging_sampler_equivalence():
    """OSPagingPolicy: the sampled tracker consumes one RNG draw per
    access in scalar order, so sampled heat must match exactly."""
    def make():
        return OSPagingPolicy(check_interval=50, sample_rate=0.3)
    cfg = YCSBConfig(mix="C", num_pages=120, num_ops=900, seed=9)
    pages = [a.page_id for a in ycsb_trace(cfg)]
    _compare_drives(make, [(pages, {})], dram_pages=16, cxl_pages=32)


def test_static_placement_unbounded_headroom():
    """StaticPolicy advertises effectively infinite headroom; whole
    runs go through one window."""
    def make():
        return StaticPolicy(classifier=lambda pid: pid % 2)
    pages = [pid % 24 for pid in range(500)]
    _compare_drives(make, [(pages, {})], dram_pages=32, cxl_pages=32)


def test_think_and_post_time_equivalence():
    """Per-access think charges land at the scalar clock positions
    (frame.last_access_ns depends on them); the array lane carries no
    post charge — that order is ``test_access_batch_contract``'s."""
    pages = [pid % 30 for pid in range(300)]
    _compare_drives(
        DbCostPolicy,
        [(pages, {"think_ns": 50.0, "nbytes": PAGE_SIZE,
                  "is_scan": True}),
         (pages, {"think_ns": 12.5, "write": True})],
    )


def test_short_run_fallback():
    """One- and two-access runs: no ladder, no bulk fault."""
    _compare_drives(DbCostPolicy, [([1, 2], {}), ([3], {"write": True})])


def test_contended_session_clock_equivalence():
    """In the session lane both loops time against the session cursor
    and fold the same arrival-order waits: every tier's queues start
    busy past the cursor, so the first access on each tier waits."""
    pools = [_build(StaticPolicy(classifier=lambda pid: pid % 2)).pool
             for _ in range(2)]
    cursors = []
    for pool in pools:
        _scalar_drive(pool, list(range(24)))
        start = pool.clock.now
        for tier_queues in pool.wait_queues():
            for queue in tier_queues:
                queue.occupy_run(start + 5_000.0, PAGE_SIZE, 3)
        cursors.append(SimClock(start))
        pool.session_begin(cursors[-1])
    pages = [pid % 24 for pid in range(200)]
    shape = {"nbytes": PAGE_SIZE, "is_scan": True, "think_ns": 40.0}
    want = _scalar_drive(pools[0], pages, clock=cursors[0], **shape)
    got = pools[1].access_run(np.asarray(pages), **shape)
    for pool in pools:
        pool.session_end()
    assert got == want
    assert pools[0].session_wait_ns == pools[1].session_wait_ns > 0.0
    assert cursors[0].now == cursors[1].now
    assert [[q.snapshot() for q in tq] for tq in pools[0].wait_queues()] \
        == [[q.snapshot() for q in tq] for tq in pools[1].wait_queues()]
    assert _pool_state(pools[0]) == _pool_state(pools[1])


def test_epoch_aging_inside_window():
    """Tracker aging epochs fire at the same access index either way."""
    scalar = _build(StaticPolicy(classifier=lambda _pid: 0)).pool
    array = _build(StaticPolicy(classifier=lambda _pid: 0)).pool
    scalar.tracker = ExactTracker(epoch_accesses=37)
    array.tracker = ExactTracker(epoch_accesses=37)
    array._tracker_batch = array.tracker.record_batch
    pages = [pid % 20 for pid in range(400)]
    _scalar_drive(scalar, pages)
    array.access_run(np.asarray(pages))
    array._drain_lazy()
    assert _tracker_state(scalar.tracker) == _tracker_state(array.tracker)
    assert scalar.clock.now == array.clock.now


def test_engine_run_coalescer_equivalence():
    """engine.run reports bit-identical numbers to the scalar
    reference on a mixed-shape trace."""
    trace = list(mixed_htap_blocks(
        oltp_pages=60, olap_pages=120, oltp_ops=400,
        olap_repeats=2, oltp_per_olap=3, seed=5,
    ))
    fast = _build(DbCostPolicy(), dram_pages=48, cxl_pages=160)
    slow = reference(_build(DbCostPolicy(), dram_pages=48, cxl_pages=160))
    fr = fast.run(trace, label="fast")
    sr = slow.run(trace, label="slow")
    assert fr.total_ns == sr.total_ns
    assert fr.demand_ns == sr.demand_ns
    assert fr.think_ns == sr.think_ns
    assert (fr.ops, fr.misses, fr.migrations) == \
        (sr.ops, sr.misses, sr.migrations)
    assert _pool_state(fast.pool) == _pool_state(slow.pool)


def test_scan_trace_equivalence_through_engine():
    """Long uniform scan: one shape segment per block, still exact."""
    trace = list(scan_blocks(0, 100, repeats=4))
    fast = _build(DbCostPolicy(), dram_pages=32, cxl_pages=160)
    slow = reference(_build(DbCostPolicy(), dram_pages=32, cxl_pages=160))
    fr = fast.run(trace)
    sr = slow.run(trace)
    assert fr.total_ns == sr.total_ns
    assert fr.demand_ns == sr.demand_ns
    assert _pool_state(fast.pool) == _pool_state(slow.pool)


def test_timing_table_matches_uncached_arithmetic():
    """PathTiming caches the exact floats the reference's per-call
    arithmetic yields, device stats included."""
    pool = _build(DbCostPolicy()).pool
    for tier in pool.tiers:
        path = tier.path
        timing = path.timing()
        assert timing.read_latency_ns == path.read_latency_ns()
        assert timing.write_latency_ns == path.write_latency_ns()
        assert timing.seq_read_latency_ns == \
            path.read_latency_ns() / PREFETCH_DEPTH
        stats = path.device.stats
        for size in (1, CACHE_LINE, 1000, PAGE_SIZE, 3 * PAGE_SIZE):
            for write, is_scan, timed in (
                    (False, False, path.read_time),
                    (True, False, path.write_time),
                    (False, True, path.read_time_sequential),
                    (True, True, path.write_time_sequential)):
                before = stats.snapshot()
                got = timed(size)
                mid = stats.snapshot()
                assert path_time(path, size, write, is_scan) == got
                after = stats.snapshot()
                # Both bump the same counters by the same amounts.
                assert {k: after[k] - mid[k] for k in after} == \
                    {k: mid[k] - before[k] for k in after}


def test_replacement_batch_matches_scalar():
    """record_access_batch leaves identical recency state."""
    for name in ("lru", "clock", "2q", "lruk"):
        one, two = make_policy(name), make_policy(name)
        for key in range(10):
            one.record_insert(key)
            two.record_insert(key)
        keys = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9]
        for key in keys:
            one.record_access(key)
        two.record_access_batch(keys, 0, len(keys))
        victims_one, victims_two = [], []
        for _ in range(10):
            v1, v2 = one.victim(), two.victim()
            victims_one.append(v1)
            victims_two.append(v2)
            one.remove(v1)
            two.remove(v2)
        assert victims_one == victims_two


def test_lru_victim_fast_path_matches_scan():
    """The O(1) cursor-step victim equals the snapshot scan's head."""
    policy = LRUPolicy()
    for key in range(8):
        policy.record_insert(key)
    policy.record_access(0)
    assert policy.victim() == policy.peek_batch(1)[0] == 1


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "compat"])
def test_access_batch_contract(fast):
    """``access_batch`` is the scalar loop spelled for a python
    sequence: think → access per id against a hand-written loop, on
    the session clock when one is open, the reference access on the
    reference twin, for a list, a generator or an ndarray of ids
    (cold, evicting and hitting)."""
    ids = [pid % 40 for pid in range(90)]
    shape = {"nbytes": PAGE_SIZE, "write": True, "is_scan": True}
    forms = (list, iter, lambda seq: np.asarray(seq, dtype=np.int64))
    for form in forms:
        hand = _build(DbCostPolicy(), dram_pages=8, cxl_pages=16).pool
        batch = _build(DbCostPolicy(), dram_pages=8, cxl_pages=16).pool
        cursors = [SimClock(500.0), SimClock(500.0)]
        for pool, cursor in zip((hand, batch), cursors):
            if not fast:
                reference(pool)
            pool.session_begin(cursor)
        want = 7.0
        for pid in ids:
            cursors[0].advance(50.0)
            want += hand.access(pid, **shape)
        got = batch.access_batch(form(ids), think_ns=50.0, accum=7.0,
                                 **shape)
        for pool in (hand, batch):
            pool.session_end()
        assert got == want
        assert cursors[0].now == cursors[1].now > 500.0
        assert batch.clock.now == 0.0
        assert _pool_state(hand) == _pool_state(batch)
    for empty in ([], iter(()), np.empty(0, dtype=np.int64)):
        assert batch.access_batch(empty, accum=3.5) == 3.5
    assert cursors[1].now == cursors[0].now


def test_access_batch_rejects_negative_cpu():
    pool = _build(DbCostPolicy()).pool
    for think in (-1.0, float("nan")):
        with pytest.raises(BufferPoolError):
            pool.access_batch([1, 2, 3], think_ns=think)
    assert (pool.clock.now, pool.stats.accesses) == (0.0, 0)
