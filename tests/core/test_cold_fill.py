"""Misses in one window: ``_block_exact`` folds first-touch misses into
free frames — and, on a full pool, behind victims that drain straight
to storage — instead of ending its window at every miss, for blocks
and for ``access_run`` / ``preload``, which charge the one-shape block
of their ids. What it refuses (a cascade, a session clock, ...) takes
the scalar chain.

Held **bit-identical** to the frozen scalar reference — the pool's
reference twin (``tests.oracle.reference``) replays each block access
by access — on frame rows, the residency table and the insertion-order
index, replacement order per tier, every pool,
device and backing stat, the clock and the emitted trace records,
after every block. The deterministic cases below pin which route was
taken (``pool.lane`` counters), so a fill plan that quietly stopped
firing fails here rather than in a benchmark.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import config
from repro.core.buffer import LaneStats, Tier, TieredBufferPool
from repro.core.placement import DbCostPolicy, OSPagingPolicy, StaticPolicy
from repro.core.replacement import make_policy
from repro.errors import BufferPoolError, DeviceFailure, ReproError
from repro.sim.clock import SimClock
from repro.sim.context import SimContext
from repro.sim.interconnect import AccessPath
from repro.sim.memory import MemoryDevice
from repro.sim.trace import MemoryTraceSink
from repro.storage.disk import StorageDevice
from repro.storage.file import PageFile
from repro.workloads.traces import AccessBlock
from tests.core.residency import frame_rows, resident_ids
from tests.core.test_access_batch import _pool_state
from tests.oracle.reference import reference


PLACEMENTS = {
    "static": lambda: StaticPolicy(lambda page_id: page_id % 2),
    "dbcost37": lambda: DbCostPolicy(rebalance_interval=37),
    "dbcost64": lambda: DbCostPolicy(rebalance_interval=64,
                                     max_moves_per_rebalance=4),
    "dbcost5000": lambda: DbCostPolicy(rebalance_interval=5000),
    "ospaging": lambda: OSPagingPolicy(check_interval=50),
}


def make_pool(placement="static", caps=(64, 64), backed=False,
              policies=("lru", "lru"), traced=False):
    specs = (config.local_ddr5(), config.cxl_expander_ddr5())
    tiers = []
    for i, (spec, cap, policy) in enumerate(zip(specs, caps, policies)):
        path = AccessPath(device=MemoryDevice(spec))
        tiers.append(Tier(name=f"t{i}", path=path, capacity_pages=cap,
                          policy=make_policy(policy)))
    ctx = SimContext(trace=MemoryTraceSink()) if traced else SimContext()
    backing = PageFile(StorageDevice(), name="home") if backed else None
    return TieredBufferPool(tiers=tiers, backing=backing,
                            placement=PLACEMENTS[placement](), ctx=ctx)


def twin_pools(**kwargs):
    """The pool under test and its scalar reference."""
    return make_pool(**kwargs), reference(make_pool(**kwargs))


def block_of(rows) -> AccessBlock:
    """``(page_id, write, is_scan, nbytes, think_ns)`` rows → a block."""
    return AccessBlock.from_columns(*zip(*rows))


def point_block(page_ids) -> AccessBlock:
    return block_of([(p, False, False, 64, 0.0) for p in page_ids])


def full_state(pool, session_clock=None):
    """Everything a run can leave behind. The mirrors are compared by
    content: a table grown per page and one grown per block differ in
    length, never in what they hold."""
    pool.check_invariants()
    state = _pool_state(pool)
    state["session_clock"] = session_clock and repr(session_clock.now)
    res = pool._res_tier
    live = np.flatnonzero(res >= 0)
    state["res_tier"] = dict(zip(live.tolist(), res[live].tolist()))
    n = pool._ord_len
    valid = pool._ord_valid[:n]
    state["ord"] = (pool._ord_ids[:n][valid].tolist(),
                    pool._ord_tier[:n][valid].tolist())
    state["policies"] = [
        list(t.policy._ref.items()) if hasattr(t.policy, "_ref")
        else t.policy.order() for t in pool.tiers]
    state["anonymous"] = sorted(pool._anonymous_pages)
    if pool.backing is not None:
        io = pool.backing.device.stats
        state["backing"] = (io.reads, io.read_bytes, io.writes,
                            io.write_bytes, pool.backing.page_ids())
    sink = pool.ctx.trace
    if sink.enabled:
        state["spans"] = [(s.name, s.cat, repr(s.start_ns), repr(s.end_ns),
                           s.args) for s in sink.spans]
    return state


def drive_both(fast, ref, blocks, session_clocks=(None, None)):
    """Each block through both pools; equal demand — or the same error
    at the same access — and equal state after every one."""
    accum = [0.0, 0.0]
    for block in blocks:
        outcomes = []
        for side, pool in enumerate((fast, ref)):
            try:
                accum[side] = pool.access_block(block, accum=accum[side])
                outcomes.append(repr(accum[side]))
            except ReproError as exc:
                outcomes.append(f"{type(exc).__name__}: {exc}")
        assert outcomes[0] == outcomes[1]
        assert full_state(fast, session_clocks[0]) == \
            full_state(ref, session_clocks[1])
        if "Error" in outcomes[0]:
            break


def session_cursors(*pools):
    """Put each pool in the uncontended session lane, on a cursor that
    starts where its own clock stands (deferred frame stats keep the
    latest timestamp, so a cursor must not run behind the pool)."""
    cursors = tuple(SimClock(pool.clock.now) for pool in pools)
    for pool, cursor in zip(pools, cursors):
        pool.session_begin(cursor, contended=False)
    return cursors


# -- the differential -------------------------------------------------------

rows = st.tuples(
    st.integers(0, 47),
    st.sampled_from([False, False, False, True]),      # write
    st.sampled_from([False, False, True]),             # is_scan
    st.sampled_from([64, 64, 256, 4096]),
    st.sampled_from([0.0, 0.0, 50.0, 120.5]),          # think class
)
runs = st.tuples(rows, st.integers(1, 12), st.integers(0, 5))


def expand(run_list):
    """Runs of one shape over strided ids, so segments of every length
    (and repeats of an id inside one window) occur."""
    out = []
    for (page, write, scan, nbytes, think), length, stride in run_list:
        out += [((page + i * stride) % 48, write, scan, nbytes, think)
                for i in range(length)]
    return out


@settings(max_examples=300, deadline=None)
@given(
    placement=st.sampled_from(sorted(PLACEMENTS)),
    caps=st.sampled_from([(3, 5), (6, 10), (8, 40), (64, 64)]),
    backed=st.booleans(),
    policies=st.sampled_from([("lru", "lru")] * 3
                             + [("lru", "clock"), ("clock", "lru")]),
    traced=st.booleans(),
    warm=st.lists(st.integers(0, 47), max_size=4),
    full=st.booleans(),
    session=st.sampled_from([False, False, False, True]),
    blocks=st.lists(st.lists(runs, min_size=1, max_size=12),
                    min_size=1, max_size=4),
)
def test_fill_window_equals_scalar_reference(placement, caps, backed,
                                             policies, traced, warm, full,
                                             session, blocks):
    fast, ref = twin_pools(placement=placement, caps=caps, backed=backed,
                           policies=policies, traced=traced)
    for pool in (fast, ref):
        # Warm pages seed the install memos (a cold pool seeds them in
        # its first window instead).
        for page in warm:
            pool.access(page)
    blocks = [block_of(expand(b)) for b in blocks]
    if full:
        # Every frame taken, a third of them dirty, before the first
        # fuzzed block: its misses evict from their first window on.
        blocks.insert(0, block_of([(p, p % 3 == 0, False, 64, 0.0)
                                   for p in range(48)]))
    clocks = session_cursors(fast, ref) if session else (None, None)
    drive_both(fast, ref, blocks, clocks)
    assert ref.lane.exact_windows == 0


# -- the route, pinned ------------------------------------------------------

def test_cold_block_is_one_window_striped_over_two_tiers():
    fast, ref = twin_pools(placement="static")
    ids = [7, 3, 7, 12, 3, 40, 41, 7, 12, 9, 9, 2, 40, 1]
    block = block_of([(p, p == 12, False, 64, 25.0 * (i % 3))
                      for i, p in enumerate(ids)])
    drive_both(fast, ref, [block])
    assert fast.stats.misses == len(set(ids))
    # Every other counter, the run lane's included, stays at zero.
    assert fast.lane.snapshot() == dict(
        LaneStats().snapshot(), exact_windows=1,
        exact_window_accesses=len(ids), fill_installs=len(set(ids)))
    # First-touch order, whichever tier each page went to.
    assert fast._ord_ids[:fast._ord_len].tolist() == \
        list(dict.fromkeys(ids))
    assert fast.frame_of(12).dirty and not fast.frame_of(7).dirty


@pytest.mark.parametrize("backed", [False, True])
def test_dbcost_fill_crosses_tiers_inside_one_window(backed):
    fast, ref = twin_pools(placement="dbcost5000", caps=(5, 50),
                           backed=backed)
    ids = [i % 20 for i in range(60)]
    drive_both(fast, ref, [point_block(ids), point_block(ids[::-1])])
    assert [fast.tier_residents(t) for t in (0, 1)] == [5, 15]
    assert fast.lane.exact_windows == 2
    assert fast.lane.fill_installs == 20
    assert not any(fast.lane.cuts.values())


def test_capacity_running_out_hands_over_to_eviction():
    fast, ref = twin_pools(placement="dbcost5000", caps=(4, 6), backed=True)
    drive_both(fast, ref, [point_block(list(range(30)) + [0, 29, 5])])
    assert fast.lane.fill_installs == 10
    # DbCost's steady admit tier cascades 0 -> 1 -> storage: the bulk
    # fault lane's job, not the window's.
    assert fast.lane.cuts["cascade"] >= 1
    assert fast.lane.evict_installs == 0
    assert fast.stats.misses > 10
    assert fast.stats.per_tier[1].evictions > 0


def test_rebalance_boundary_inside_a_cold_block():
    fast, ref = twin_pools(placement="dbcost37", caps=(8, 40))
    drive_both(fast, ref, [point_block([i % 30 for i in range(120)])])
    assert fast.lane.cuts["headroom"] >= 2
    assert fast.lane.fill_installs > 8
    assert fast.placement.rebalances == 120 // 37


def test_scan_flag_of_the_misses_cuts_the_window():
    fast, ref = twin_pools(placement="dbcost5000", caps=(8, 40))
    block = block_of([(p, False, p >= 10, 4096 if p >= 10 else 64, 0.0)
                      for p in (0, 1, 10, 11, 2, 0, 10)])
    drive_both(fast, ref, [block])
    assert fast.lane.cuts["scan_flag"] == 2
    assert fast.lane.fill_installs == 5
    assert fast.tier_of(10) == 1 and fast.tier_of(2) == 0


# The ids keep their positions from when a table-less tier was the
# case at index 1 (tiers without timing tables are gone).
@pytest.mark.parametrize("setup, reason", [
    pytest.param(dict(policies=("clock", "lru")), "non_lru",
                 id="setup0-non_lru"),
    pytest.param(dict(), "session", id="setup3-session"),
])
def test_declined_plans_keep_the_old_route(setup, reason):
    """Hits, then a miss the plan will not fold: the window ends at the
    miss and is counted under the reason."""
    fast, ref = twin_pools(placement="static", **setup)
    for pool in (fast, ref):
        for page in (0, 1, 2, 3):
            pool.access(page)
    clocks = (session_cursors(fast, ref) if reason == "session"
              else (None, None))
    installs_before = fast.lane.fill_installs
    drive_both(fast, ref, [point_block([0, 2, 1, 3, 21, 20, 1, 23, 22])],
               clocks)
    assert fast.lane.cuts[reason] >= 1
    if reason == "session":
        assert fast.lane.fill_installs == installs_before


def test_unhealthy_backing_declines_and_fails_like_the_reference():
    fast, ref = twin_pools(placement="static", backed=True)
    for pool in (fast, ref):
        for page in (0, 1):
            pool.access(page)
        pool.backing.device.fail()
        with pytest.raises(DeviceFailure):
            pool.access_block(point_block([0, 1, 9]))
    assert fast.lane.cuts["backing"] == 1
    assert fast.stats.accesses == ref.stats.accesses


def test_tracing_changes_neither_route_nor_records():
    """The fill window emits the per-miss ``pool.fault`` spans from its
    arrays; its counters do not know a sink is attached."""
    blocks = [block_of([(p % 17, p % 5 == 0, False, 64, 10.0 * (p % 2))
                        for p in range(50)]),
              point_block(range(10, 40))]
    traced, ref = twin_pools(placement="static", traced=True, backed=True)
    plain = make_pool(placement="static", traced=False, backed=True)
    drive_both(traced, ref, blocks)
    for block in blocks:
        plain.access_block(block)
    spans = traced.ctx.trace.spans
    assert [s.name for s in spans] == ["pool.fault"] * traced.stats.misses
    assert [s.args["page"] for s in spans] == \
        traced._ord_ids[:traced._ord_len].tolist()
    assert traced.lane.snapshot() == plain.lane.snapshot()
    assert traced.lane.fill_installs == traced.stats.misses > 0
    assert ref.ctx.trace.spans and plain.ctx.trace.enabled is False


def test_lane_counters_are_a_namespace_of_their_own():
    pool = make_pool()
    pool.access_block(point_block([1, 2, 1]))
    snap = pool.ctx.snapshot()
    assert snap["pool"]["lane"]["exact_windows"] == 1
    assert snap["pool"]["lane"]["cuts"]["headroom"] == 0
    assert "exact_windows" not in pool.stats.snapshot()
    assert "lane" not in pool.snapshot()


# -- full pools: misses that evict stay in the window -------------------------

def full_static(caps=(3, 3), dirty=(), **kwargs):
    """Twin static pools (even pages -> tier 0) whose tier 0 holds
    pages 0, 2, 4, ... in that recency order, *dirty* ones written."""
    fast, ref = twin_pools(placement="static", caps=caps, backed=True,
                           **kwargs)
    for pool in (fast, ref):
        for page in range(0, 2 * caps[0], 2):
            pool.access(page, write=page in dirty)
    return fast, ref


def test_victim_touched_before_its_turn_is_rescued():
    """Page 0 heads the recency order, but the window touches it before
    its first miss: 2 and 4 are the victims, in one window."""
    fast, ref = full_static()
    drive_both(fast, ref, [point_block([0, 6, 0, 8])])
    assert sorted(resident_ids(fast)) == [0, 6, 8]
    assert fast.lane.snapshot() == dict(
        LaneStats().snapshot(), exact_windows=1, exact_window_accesses=4,
        evict_installs=2, victim_rescues=1)


def test_rereference_of_an_evicted_page_cuts_the_window():
    """6 evicts 0; the 0 that follows is a fault, so it opens the next
    window (where it evicts 2, and 8 evicts 4)."""
    fast, ref = full_static()
    drive_both(fast, ref, [point_block([6, 0, 8])])
    assert sorted(resident_ids(fast)) == [0, 6, 8]
    assert fast.lane.cuts["evicted_reref"] == 1
    assert (fast.lane.exact_windows, fast.lane.evict_installs) == (2, 3)
    assert fast.stats.misses == 3 + 3          # warm-up included


@pytest.mark.parametrize("dirty", [(0, 2, 4, 6), (2, 6), ()])
def test_dirty_victims_write_back_inside_the_window(dirty):
    fast, ref = full_static(caps=(4, 4), dirty=dirty)
    writes_before = fast.backing.device.stats.writes
    drive_both(fast, ref, [block_of([(p, p == 10, False, 64, 7.0)
                                     for p in (8, 10, 12, 14)])])
    assert fast.stats.writebacks == len(dirty)
    assert fast.backing.device.stats.writes - writes_before == len(dirty)
    assert (fast.lane.exact_windows, fast.lane.evict_installs) == (1, 4)
    assert fast.frame_of(10).dirty and not fast.frame_of(8).dirty


def test_more_misses_than_residents_cut_at_the_population_bound():
    """The fourth miss would evict a page this window installed."""
    fast, ref = full_static()
    drive_both(fast, ref, [point_block([6, 8, 10, 12])])
    assert sorted(resident_ids(fast)) == [8, 10, 12]
    assert fast.lane.cuts["victim_bound"] == 1
    assert (fast.lane.exact_windows, fast.lane.evict_installs) == (2, 4)


def test_rescues_count_against_the_population_bound():
    """Two residents rescued, one left to evict: the second miss has
    no victim the window has not touched."""
    fast, ref = full_static()
    drive_both(fast, ref, [point_block([0, 2, 6, 8, 0])])
    assert fast.lane.cuts["victim_bound"] == 1
    assert fast.lane.victim_rescues >= 2


def test_both_tiers_evict_inside_one_window():
    fast, ref = twin_pools(placement="static", caps=(3, 3), backed=True)
    for pool in (fast, ref):
        for page in range(6):
            pool.access(page, write=page in (1, 2))
    drive_both(fast, ref, [point_block([6, 7, 0, 9, 8, 3])])
    # 0 went to make room for 6, 3 for 9, before they came back.
    assert fast.lane.cuts["evicted_reref"] == 2
    assert fast.lane.evict_installs == fast.stats.misses - 6


def test_deferred_writes_dirty_the_victims():
    """Writes the run lane has only recorded (``_lazy_runs``) must be
    latched before the plan reads its victims' dirty flags."""
    fast, ref = twin_pools(placement="static", caps=(4, 4), backed=True)
    ids = np.arange(0, 8, 2, dtype=np.int64)
    fast.access_run(ids)
    fast.access_quantum(ids, [(0, 4, 64, True, False, 0.0)])
    assert fast._lazy_runs
    for page in ids.tolist() * 2:
        ref.access(page, write=ref.stats.accesses >= 4)
    drive_both(fast, ref, [point_block([8, 10, 12, 14])])
    assert fast.stats.writebacks == 4
    assert fast.lane.evict_installs == 4


def test_window_route_settles_the_hit_log_first():
    """A run the hit kernel has only logged comes before the block
    that follows it: the window settles the log before it touches
    recency and the tracker itself (it did not, and the run's pages
    ended up more recent than the block's)."""
    fast, ref = twin_pools(placement="static")
    for pool in (fast, ref):
        pool.access_run(np.arange(16, dtype=np.int64))
        pool.access_quantum(np.array([6, 2, 4, 10, 8], dtype=np.int64),
                            [(0, 5, 64, False, False, 0.0)])
    assert fast._lazy_runs
    drive_both(fast, ref, [point_block([2, 0])])
    # The cold run's window (access_run is a one-shape block) and the
    # block's.
    assert fast.lane.exact_windows == 2


def test_a_note_that_drains_finds_its_span_in_the_log():
    """A placement note may call back into the pool; whatever it
    drains must already hold the span that is being noted."""
    settled = []

    class SyncingNote(StaticPolicy):
        def note_accesses(self, page_ids, start, end, is_scan=False):
            pool = self.pool
            settled.append(sum(row[1] for row in frame_rows(pool).values())
                           == pool.stats.accesses)

    pool = TieredBufferPool(
        tiers=make_pool().tiers,
        placement=SyncingNote(lambda page_id: page_id % 2))
    ids = np.arange(16, dtype=np.int64)
    pool.access_run(ids)
    pool.access_quantum(ids, [(0, 6, 64, False, False, 0.0),
                              (6, 16, 64, True, False, 5.0)])
    assert pool.lane.quantum_spans == 1
    assert settled and all(settled)


def test_anonymous_full_pool_leaves_eviction_to_the_scalar_path():
    fast, ref = twin_pools(placement="static", caps=(3, 3))
    for pool in (fast, ref):
        for page in (0, 2, 4):
            pool.access(page, write=True)
    drive_both(fast, ref, [point_block([0, 6, 8])])
    assert fast.lane.cuts["miss_full"] >= 1
    assert fast.lane.evict_installs == 0
    assert sorted(fast._anonymous_pages) == sorted(ref._anonymous_pages)


def test_full_pool_plans_decline_on_a_failed_device():
    fast, ref = full_static()
    for pool in (fast, ref):
        pool.backing.device.fail()
        with pytest.raises(DeviceFailure):
            pool.access_block(point_block([2, 6, 8]))
    assert full_state(fast) == full_state(ref)
    assert fast.lane.cuts["backing"] == 1
    assert fast.lane.evict_installs == 0


def test_ospaging_blocks_take_the_window_route():
    """A fault_storm in miniature — cold over-capacity scans, then a
    write-heavy tail — never leaves ``_block_exact``, traced or not,
    and a sink changes neither state nor route counters."""
    rng = np.random.default_rng(5)
    blocks = [block_of([(p, False, True, 4096, 0.0) for p in range(40)])
              for _ in range(3)]
    blocks.append(block_of([(int(p), bool(w), False, 64, 15.0)
                            for p, w in zip(rng.zipf(1.3, 400) % 40,
                                            rng.random(400) < 0.5)]))
    traced, ref = twin_pools(placement="ospaging", caps=(4, 12),
                             backed=True, traced=True)
    plain = make_pool(placement="ospaging", caps=(4, 12), backed=True)
    drive_both(traced, ref, blocks)
    for block in blocks:
        plain.access_block(block)
    assert traced.lane.segment_blocks == plain.lane.segment_blocks == 0
    spans = traced.ctx.trace.spans
    plain_state, traced_state = full_state(plain), full_state(traced)
    assert traced_state.pop("spans") and plain_state == traced_state
    assert traced.lane.snapshot() == plain.lane.snapshot()
    lane = traced.lane
    assert lane.evict_installs > 200 and lane.victim_rescues > 0
    assert lane.cuts["evicted_reref"] > 0 and lane.cuts["headroom"] > 0
    assert sum(s.name == "pool.fault" for s in spans) == \
        traced.stats.misses


def test_cascades_resolve_on_the_scalar_chain():
    """A miss into a full tier that demotes into another tier cuts the
    window (``cascade``): the refused stretch resolves through the
    scalar ``_fault`` chain, the reference, which emits its own
    ``pool.demotion`` / ``pool.fault`` spans. State and spans match
    the reference, and a sink changes neither state nor route."""
    traced, ref = twin_pools(placement="dbcost5000", caps=(4, 6),
                             backed=True, traced=True)
    plain = make_pool(placement="dbcost5000", caps=(4, 6), backed=True)
    scalar_faults = []
    original = traced._fault
    traced._fault = lambda *a, **k: (scalar_faults.append(a),
                                     original(*a, **k))[1]
    blocks = [block_of([(p, True, False, 64, 5.0) for p in range(20)]),
              point_block(range(20, 40)),
              point_block(list(range(40, 48)) + list(range(12)))]
    drive_both(traced, ref, blocks)
    for block in blocks:
        plain.access_block(block)
    # Ten free frames fill in the first window; DbCost's steady admit
    # tier then cascades 0 -> 1 -> storage on every later miss.
    lane = traced.lane
    assert lane.fill_installs == 10 and lane.evict_installs == 0
    assert lane.cuts["cascade"] == 1
    assert lane.head_cuts["cascade"] == 3 == len(blocks)
    assert len(scalar_faults) == lane.head_stretch_accesses == 50
    names = [s.name for s in traced.ctx.trace.spans]
    assert names.count("pool.demotion") == traced.stats.migrations > 0
    assert names.count("pool.fault") == traced.stats.misses == 60
    assert 0 < traced.stats.writebacks < 50
    traced_state = full_state(traced)
    del traced_state["spans"]
    assert full_state(plain) == traced_state
    assert traced.lane.snapshot() == plain.lane.snapshot()


def test_rebalance_skips_a_promotion_whose_page_was_evicted():
    """Recorded by PR 15: on a (3, 5) pool the swap's own demotion
    cascaded to an eviction of its slow partner and the promotion half
    raised ``cannot migrate non-resident 15`` at access 147."""
    import random
    pool = make_pool(placement="dbcost37", caps=(3, 5), backed=True)
    rng = random.Random(0)
    for _ in range(300):
        pool.access(rng.randrange(48))
    assert pool.placement.evicted_skips >= 1
    pool.check_invariants()
    assert pool.resident_pages <= 8


# -- access_run and preload misses take the window ----------------------------

def test_access_run_fills_an_anonymous_pool_in_the_window():
    """A storage-less cold run goes to the block window, as a block
    does: one window installs its misses, no scalar fault per page."""
    fast, ref = make_pool(caps=(64, 64)), make_pool(caps=(64, 64))
    scalar_faults = []
    original = fast._fault
    fast._fault = lambda *a, **k: (scalar_faults.append(a),
                                   original(*a, **k))[1]
    ids = np.arange(40, dtype=np.int64)
    got = fast.access_run(ids, think_ns=5.0)
    want = 0.0
    for page in ids.tolist():
        ref.clock.advance(5.0)
        want += ref.access(page)
    assert repr(got) == repr(want)
    assert full_state(fast) == full_state(ref)
    assert not scalar_faults
    assert (fast.lane.exact_windows, fast.lane.fill_installs) == (1, 40)


run_shapes = st.tuples(
    st.integers(0, 47),                                 # first id
    st.integers(1, 40),                                 # length
    st.integers(0, 3),                                  # stride: 0 repeats
    st.booleans(),                                      # write
    st.booleans(),                                      # is_scan
    st.sampled_from([64, 4096, 100.5]),                 # a float size too
    st.sampled_from([0.0, 0.0, 35.5]),                  # think
    st.booleans(),                                      # preload
)


@settings(max_examples=80, deadline=None)
@given(
    placement=st.sampled_from(["static", "dbcost37", "dbcost5000",
                               "ospaging"]),
    caps=st.sampled_from([(3, 5), (6, 10), (64, 64)]),
    backed=st.booleans(),
    traced=st.booleans(),
    full=st.booleans(),
    warm=st.lists(st.tuples(st.integers(0, 47), st.booleans()),
                  max_size=8),
    session=st.sampled_from([False, False, False, True]),
    run_list=st.lists(run_shapes, min_size=1, max_size=5),
)
def test_miss_runs_equal_scalar_reference(placement, caps, backed, traced,
                                          full, warm, session, run_list):
    """``access_run`` / ``preload`` miss runs against the frozen
    reference: anonymous and backed pools, free and full tiers (static
    placement drains to storage, DbCost and OS paging cascade), dirty
    victims, an uncontended session clock, repeated ids, with and
    without a trace sink."""
    fast, ref = twin_pools(placement=placement, caps=caps, backed=backed,
                           traced=traced)
    # Full: every page touched once, a third of them written, so the
    # small pools' misses evict dirty and clean victims from the start.
    warm = [(page, page % 3 == 0) for page in range(48)] * full + warm
    for pool in (fast, ref):
        for page, write in warm:
            pool.access(page, write=write)
    clocks = session_cursors(fast, ref) if session else (None, None)
    accum = [0.0, 0.0]
    for first, length, stride, write, scan, nbytes, think, pre in run_list:
        ids = np.array([(first + i * stride) % 48 for i in range(length)],
                       dtype=np.int64)
        shape = dict(nbytes=nbytes, write=write, is_scan=scan,
                     think_ns=think)
        outcomes = []
        for side, pool in enumerate((fast, ref)):
            try:
                if pre:
                    accum[side] += pool.preload(ids.tolist(), **shape)
                else:
                    accum[side] = pool.access_run(ids, accum=accum[side],
                                                  **shape)
                outcomes.append(repr(accum[side]))
            except ReproError as exc:
                outcomes.append(f"{type(exc).__name__}: {exc}")
        assert outcomes[0] == outcomes[1]
        assert full_state(fast, clocks[0]) == full_state(ref, clocks[1])
        if "Error" in outcomes[0]:
            break
    assert ref.lane.exact_windows == 0


@pytest.mark.parametrize("entry, reason", [("access_block", "session"),
                                           ("access_run", "cascade")])
def test_a_refused_head_is_planned_once_per_miss_stretch(entry, reason):
    """Every window a miss heads is refused (a session clock; a full
    tier that demotes into another). The stretch of misses at the head
    resolves through the scalar chain and the window is planned again
    after it — not once per miss, which costs a plan per fault."""
    if reason == "session":
        fast, ref = twin_pools(placement="static")
        hot, warm = 0, [0]
    else:
        fast, ref = twin_pools(placement="dbcost5000", caps=(4, 60),
                               backed=True)
        hot, warm = 50, range(64)
    for pool in (fast, ref):
        for page in warm:
            pool.access(page)
    plans = []
    original = fast._fill_plan
    fast._fill_plan = lambda *a: (plans.append(int(a[2][0]) < 0),
                                  original(*a))[1]
    # Three stretches of ten misses, two runs of hits between them.
    ids = [*range(100, 110), hot, hot, *range(110, 120), hot,
           *range(120, 130)]
    if entry == "access_run":
        fast.access_run(np.array(ids, dtype=np.int64))
        for page in ids:
            ref.access(page)
    else:
        clocks = session_cursors(fast, ref)
        drive_both(fast, ref, [point_block(ids)], clocks)
    assert full_state(fast) == full_state(ref)
    # One plan per refused head, one per hit run the refusal then cuts.
    assert plans == [True, False, True, False, True]
    assert fast.lane.head_cuts == dict(LaneStats().head_cuts, **{reason: 3})
    assert fast.lane.head_stretch_accesses == 30
    assert fast.lane.cuts[reason] == 2


@pytest.mark.parametrize("entry", ["access_run", "preload"])
@pytest.mark.parametrize("holder", ["bytes", "memmap"])
def test_an_id_column_over_a_buffer_is_checked_as_its_run(entry, holder,
                                                          tmp_path):
    """An id array whose ``.base`` is no ndarray — bytes under
    ``np.frombuffer``, an ``mmap`` under ``np.memmap`` — is checked as
    the run it is (it raised ``AttributeError`` on ``base.ndim``)."""
    ids = np.array([5, 1, 5, 9, 2, 40], dtype=np.int64)
    if holder == "bytes":
        col = np.frombuffer(ids.tobytes(), dtype=np.int64)
    else:
        col = np.memmap(tmp_path / "ids", dtype=np.int64, mode="w+",
                        shape=ids.shape)
        col[:] = ids
    assert col.base is not None and not isinstance(col.base, np.ndarray)
    fast, ref = make_pool(), make_pool()
    got = getattr(fast, entry)(col, think_ns=3.0)
    want = getattr(ref, entry)(ids, think_ns=3.0)
    assert repr(got) == repr(want)
    assert full_state(fast) == full_state(ref)


# -- negative page ids on a storage-less pool --------------------------------

@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("ids", [[-1, 3, 4], [3, 4, -1, 5]])
def test_negative_page_id_is_refused_before_any_install(ids, warm):
    def fresh():
        pool = make_pool()
        if warm:                     # a non-empty table
            pool.access_block(point_block([3, 8]))
        return pool

    entries = {
        "access": lambda pool: [pool.access(p) for p in ids],
        "access_batch": lambda pool: pool.access_batch(ids + [6, 7]),
        "access_block": lambda pool: pool.access_block(point_block(ids)),
    }
    for name, entry in entries.items():
        pool = fresh()
        with pytest.raises(BufferPoolError, match="invalid page id -1"):
            entry(pool)
        assert pool.frame_of(-1) is None, name
        assert -1 not in pool._anonymous_pages
        pool.check_invariants()
        # Everything before the bad id was served.
        assert pool.tier_of(3) is not None or ids[0] == -1


@pytest.mark.parametrize("backed", [False, True])
def test_out_of_range_page_id_leaves_the_pool_unchanged(backed):
    """A page id that is not an integer in ``[0, 2**63)`` is refused
    before anything is counted: no access or heat for a page never
    charged, and never a page that the tier column holds but the int64
    insertion-order index cannot."""
    pool = make_pool(backed=backed)
    pool.access_block(point_block([3, 8, 3]))
    before = full_state(pool)
    big = np.array([2**63], dtype=np.uint64)
    refused = {
        "access 2**63": lambda: pool.access(2**63),
        "access -1": lambda: pool.access(-1),
        "access 1.5": lambda: pool.access(1.5),
        "access_batch": lambda: pool.access_batch([2**63]),
        "access_run": lambda: pool.access_run(big),
        "preload": lambda: pool.preload(big),
        "access_quantum": lambda: pool.access_quantum(
            big, [(0, 1, 64, False, False, 0.0)]),
    }
    for name, call in refused.items():
        with pytest.raises(BufferPoolError, match="page id"):
            call()
        assert full_state(pool) == before, name
        assert pool.tier_of(2**63) is None, name
