"""Cold blocks in one window: ``_block_exact`` folds first-touch misses
into free frames instead of ending its window at every miss.

Held **bit-identical** to the frozen scalar reference — a twin pool
with the fast lane off replays each block through ``_access_compat`` —
on frames (after ``sync_frame_stats``), the residency and
insertion-order mirrors, replacement order per tier, every pool,
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
from repro.core.buffer import Tier, TieredBufferPool
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
from tests.core.test_access_batch import _pool_state


class OpaquePath:
    """An access path without a timing table (a table-less tier)."""

    def __init__(self, inner: AccessPath) -> None:
        self._inner = inner

    def __getattr__(self, name):
        if name == "timing":
            raise AttributeError(name)
        return getattr(self._inner, name)


PLACEMENTS = {
    "static": lambda: StaticPolicy(lambda page_id: page_id % 2),
    "dbcost37": lambda: DbCostPolicy(rebalance_interval=37),
    "dbcost64": lambda: DbCostPolicy(rebalance_interval=64,
                                     max_moves_per_rebalance=4),
    "dbcost5000": lambda: DbCostPolicy(rebalance_interval=5000),
    "ospaging": lambda: OSPagingPolicy(check_interval=50),
}


def make_pool(placement="static", caps=(64, 64), backed=False,
              policies=("lru", "lru"), traced=False, opaque=False):
    specs = (config.local_ddr5(), config.cxl_expander_ddr5())
    tiers = []
    for i, (spec, cap, policy) in enumerate(zip(specs, caps, policies)):
        path = AccessPath(device=MemoryDevice(spec))
        if opaque and i == 1:
            path = OpaquePath(path)
        tiers.append(Tier(name=f"t{i}", path=path, capacity_pages=cap,
                          policy=make_policy(policy)))
    ctx = SimContext(trace=MemoryTraceSink()) if traced else SimContext()
    backing = PageFile(StorageDevice(), name="home") if backed else None
    return TieredBufferPool(tiers=tiers, backing=backing,
                            placement=PLACEMENTS[placement](), ctx=ctx)


def twin_pools(**kwargs):
    """The pool under test and its scalar reference."""
    fast, ref = make_pool(**kwargs), make_pool(**kwargs)
    ref.set_fast_lane(False)
    return fast, ref


def block_of(rows) -> AccessBlock:
    """``(page_id, write, is_scan, nbytes, think_ns)`` rows → a block."""
    return AccessBlock.from_columns(*zip(*rows))


def point_block(page_ids) -> AccessBlock:
    return block_of([(p, False, False, 64, 0.0) for p in page_ids])


def full_state(pool, session_clock=None):
    """Everything a run can leave behind. The mirrors are compared by
    content: a table grown per page and one grown per block differ in
    length, never in what they hold."""
    pool.sync_frame_stats()
    state = _pool_state(pool)
    state["session_clock"] = session_clock and repr(session_clock.now)
    res = pool._res_tier
    live = np.flatnonzero(res >= 0)
    state["res_tier"] = dict(zip(live.tolist(), res[live].tolist()))
    n = pool._ord_len
    valid = pool._ord_valid[:n]
    state["ord"] = (pool._ord_ids[:n][valid].tolist(),
                    pool._ord_tier[:n][valid].tolist())
    assert all(pool._ord_ids[slot] == pid and pool._ord_valid[slot]
               for pid, slot in pool._ord_slot.items())
    assert len(pool._ord_slot) == int(valid.sum())
    state["policies"] = [
        list(getattr(t.policy, "_ref", getattr(t.policy, "_order", {}))
             .items()) for t in pool.tiers]
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
    opaque=st.sampled_from([False, False, False, False, True]),
    warm=st.lists(st.integers(0, 47), max_size=4),
    pin=st.sampled_from([False, False, False, True]),
    session=st.sampled_from([False, False, False, True]),
    blocks=st.lists(st.lists(runs, min_size=1, max_size=12),
                    min_size=1, max_size=4),
)
def test_fill_window_equals_scalar_reference(placement, caps, backed,
                                             policies, traced, opaque,
                                             warm, pin, session, blocks):
    fast, ref = twin_pools(placement=placement, caps=caps, backed=backed,
                           policies=policies, traced=traced, opaque=opaque)
    for pool in (fast, ref):
        # Warm pages seed the install memos (a cold pool seeds them in
        # its first window instead) and give the pin something to hold.
        for page in warm:
            pool.access(page)
        if pin and warm:
            pool.pin(warm[0])
    clocks = session_cursors(fast, ref) if session else (None, None)
    drive_both(fast, ref, [block_of(expand(b)) for b in blocks], clocks)
    assert ref.lane.exact_windows == 0


# -- the route, pinned ------------------------------------------------------

def test_cold_block_is_one_window_striped_over_two_tiers():
    fast, ref = twin_pools(placement="static")
    ids = [7, 3, 7, 12, 3, 40, 41, 7, 12, 9, 9, 2, 40, 1]
    block = block_of([(p, p == 12, False, 64, 25.0 * (i % 3))
                      for i, p in enumerate(ids)])
    drive_both(fast, ref, [block])
    assert fast.stats.misses == len(set(ids))
    assert fast.lane.snapshot() == {
        "exact_windows": 1, "exact_window_accesses": len(ids),
        "fill_installs": len(set(ids)),
        "cuts": dict.fromkeys(fast.lane.cuts, 0),
    }
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
    assert fast.lane.cuts["miss_full"] >= 1
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


@pytest.mark.parametrize("setup, reason", [
    (dict(policies=("clock", "lru")), "non_lru"),
    (dict(opaque=True), "tableless"),
    (dict(), "pinned"),
    (dict(), "session"),
])
def test_declined_plans_keep_the_old_route(setup, reason):
    """Hits, then a miss the plan will not fold: the window ends at the
    miss and is counted under the reason."""
    fast, ref = twin_pools(placement="static", **setup)
    for pool in (fast, ref):
        for page in (0, 1, 2, 3):
            pool.access(page)
        if reason == "pinned":
            pool.pin(0)
    clocks = (session_cursors(fast, ref) if reason == "session"
              else (None, None))
    installs_before = fast.lane.fill_installs
    drive_both(fast, ref, [point_block([0, 2, 1, 3, 21, 20, 1, 23, 22])],
               clocks)
    assert fast.lane.cuts[reason] >= 1
    if reason in ("pinned", "session"):
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


# -- the anonymous fill phase of the bulk fault lane -------------------------

def test_fault_span_fills_an_anonymous_pool():
    """``_fault_span`` shares the install body, so a storage-less cold
    run no longer drops to one scalar fault per page."""
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
        want += ref._access_compat(page)
    assert repr(got) == repr(want)
    assert full_state(fast) == full_state(ref)
    assert not scalar_faults


# -- negative page ids on a storage-less pool --------------------------------

@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("ids", [[-1, 3, 4], [3, 4, -1, 5]])
def test_negative_page_id_is_refused_before_any_install(ids, warm):
    def fresh():
        pool = make_pool()
        if warm:                     # a non-empty dirty mirror
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
        assert -1 not in pool._frames, name
        assert -1 not in pool._anonymous_pages
        assert pool.resident_pages == len(pool._ord_slot)
        assert not pool._dirty_mirror[-1:].any()
        # Everything before the bad id was served.
        assert pool.tier_of(3) is not None or ids[0] == -1
