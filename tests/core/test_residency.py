"""The residency table is the pool's one record of what is resident.

* ``check_invariants()`` ties the tier column to everything kept
  beside it; a hypothesis state machine interleaves every entry point
  that writes the table — on tiny tiers, with an id the dense table
  refuses — calls it after every rule, and holds the pool to its
  reference twin (``tests.oracle.reference``; ``full_state``: rows,
  index, recency, heat, stats, devices, clock).
* ``Frame`` is a view: reads and writes go through to the row, and a
  view that outlives its page's eviction says so instead of showing
  the next residency.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    rule,
    run_state_machine_as_test,
)

from repro.core.buffer import _RES_MAX_PIDS
from repro.core.temperature import _MAX_DENSE_PIDS, ExactTracker, SampledTracker
from repro.errors import BufferPoolError, ReproError
from repro.storage.page import Page
from tests.core.residency import resident_ids
from tests.core.test_cold_fill import (
    PLACEMENTS,
    block_of,
    full_state,
    make_pool,
    twin_pools,
)

PAGES = 24
FAR = _RES_MAX_PIDS + 5
page_ids = st.integers(0, PAGES - 1)
id_runs = st.lists(page_ids, min_size=1, max_size=40)


class ResidencyMachine(RuleBasedStateMachine):
    """Every writer of the table, interleaved, against the scalar twin."""

    @initialize(placement=st.sampled_from(sorted(PLACEMENTS)),
                backed=st.booleans(),
                policy=st.sampled_from(["lru", "clock"]))
    def build(self, placement, backed, policy):
        self.pools = twin_pools(placement=placement, caps=(3, 5),
                                backed=backed, policies=(policy, "lru"))

    def both(self, op):
        """Run *op* on both pools: the same result or the same error,
        a consistent table and the same state afterwards."""
        outcomes = []
        for pool in self.pools:
            try:
                outcomes.append(repr(op(pool)))
            except ReproError as error:
                outcomes.append((type(error).__name__, str(error)))
            pool.check_invariants()
        assert outcomes[0] == outcomes[1]
        fast, ref = self.pools
        assert full_state(fast) == full_state(ref)

    @rule(page=page_ids | st.just(FAR), write=st.booleans(),
          scan=st.booleans())
    def access(self, page, write, scan):
        self.both(lambda pool: pool.access(page, write=write, is_scan=scan))

    @rule(ids=id_runs, write=st.booleans(), scan=st.booleans(),
          think=st.sampled_from([0.0, 12.5]))
    def access_run(self, ids, write, scan, think):
        column = np.asarray(ids, dtype=np.int64)
        self.both(lambda pool: pool.access_run(
            column, write=write, is_scan=scan, think_ns=think))

    @rule(rows=st.lists(st.tuples(
        page_ids, st.booleans(), st.booleans(),
        st.sampled_from([64, 4096]), st.sampled_from([0.0, 7.0])),
        min_size=1, max_size=40))
    def access_block(self, rows):
        block = block_of(rows)
        self.both(lambda pool: pool.access_block(block))

    @rule(ids=id_runs)
    def preload(self, ids):
        self.both(lambda pool: pool.preload(ids, is_scan=True))

    @rule(data=st.data())
    def migrate_batch(self, data):
        resident = resident_ids(self.pools[0])
        if resident:
            moves = data.draw(st.lists(st.tuples(
                st.sampled_from(resident), st.integers(0, 1)), max_size=4))
            self.both(lambda pool: pool.migrate_batch(
                [pid for pid, _ in moves], [tier for _, tier in moves]))

    @rule(tier=st.integers(0, 1), capacity=st.integers(1, 6))
    def resize_tier(self, tier, capacity):
        self.both(lambda pool: pool.resize_tier(tier, capacity))

    @rule(page=st.integers(PAGES, PAGES + 3), tier=st.integers(0, 1))
    def adopt_resident(self, page, tier):
        self.both(lambda pool: pool.adopt_resident(
            Page(page_id=page, size_bytes=pool.page_size), tier))

    @rule()
    def flush_all(self):
        self.both(lambda pool: pool.flush_all())

    @rule()
    def drop_all(self):
        self.both(lambda pool: pool.drop_all())


def test_residency_machine():
    run_state_machine_as_test(ResidencyMachine, settings=settings(
        max_examples=120, stateful_step_count=30, deadline=None))


# -- check_invariants says what is wrong --------------------------------------

@pytest.mark.parametrize("damage, what", [
    (lambda pool: pool._res_tier.__setitem__(9, 1), "name different pages"),
    (lambda pool: pool._ord_tier.__setitem__(0, 1), "tier or slot"),
    (lambda pool: pool._resident_counts.__setitem__(0, 2), "resident count"),
    (lambda pool: pool.tiers[0].policy.remove(0), "policy membership"),
    (lambda pool: pool._dirty.__setitem__(9, True), "absent row"),
    (lambda pool: pool._far.__setitem__(7, [0, False, 0.0, 0, 0]),
     "name different pages"),
])
def test_check_invariants_names_the_break(damage, what):
    pool = make_pool(caps=(4, 4))
    pool.access_block(block_of([(p, p == 2, False, 64, 0.0)
                                for p in range(6)]))
    pool.access(FAR)
    pool.check_invariants()
    damage(pool)
    with pytest.raises(BufferPoolError, match=what):
        pool.check_invariants()


# -- the view's contract ---------------------------------------------------------

def test_frame_is_a_view_of_the_row():
    pool = make_pool(caps=(2, 2), backed=True)
    for page in (0, 1, FAR):
        assert pool.frame_of(page) is None
        pool.access(page)
        frame = pool.frame_of(page)
        assert (frame.page_id, frame.accesses, frame.dirty) == (page, 1, False)
        assert frame.page is pool.backing.peek(page)
        # Through to the row, both ways: a view taken earlier sees a
        # later access, and the pool sees a write through the view.
        pool.access(page, write=True)
        assert (frame.accesses, frame.dirty) == (2, True)
        assert frame.last_access_ns == pool.frame_of(page).last_access_ns
        frame.dirty = False
        assert not pool.frame_of(page).dirty
        assert repr(frame) == f"Frame(page={page}, tier={frame.tier_index}, -)"


def test_view_reads_settle_the_hit_log():
    pool = make_pool(caps=(8, 8))
    ids = np.arange(4, dtype=np.int64)
    pool.access_run(ids)
    frame = pool.frame_of(2)
    pool.access_quantum(ids, [(0, 4, 64, True, False, 0.0)])
    assert pool._lazy_runs
    assert (frame.accesses, frame.dirty) == (2, True)
    assert not pool._lazy_runs


def test_stale_view_raises_instead_of_showing_the_next_residency():
    pool = make_pool(placement="static", caps=(1, 1), backed=True)
    pool.access(0, write=True)
    frame = pool.frame_of(0)
    pool.access(2)                           # evicts 0 from tier 0
    assert pool.frame_of(0) is None
    for read in ("tier_index", "accesses", "dirty", "page"):
        with pytest.raises(BufferPoolError, match="stale frame: page 0"):
            getattr(frame, read)
    pool.access(0)                           # a new residency of page 0
    with pytest.raises(BufferPoolError, match="stale frame"):
        frame.accesses
    with pytest.raises(BufferPoolError, match="stale frame"):
        frame.dirty = True
    assert pool.frame_of(0).accesses == 1


def test_dirty_through_the_view_is_written_back():
    pool = make_pool(placement="static", caps=(1, 1), backed=True)
    pool.access(0)
    writes = pool.backing.device.stats.writes
    pool.frame_of(0).dirty = True
    pool.access(2)                           # evicts 0
    assert pool.stats.writebacks == 1
    assert pool.backing.device.stats.writes == writes + 1


def test_migration_that_evicts_its_own_page_is_refused():
    """Promoting tier 1's LRU page into a full tier 0 cascades to that
    very page's eviction; the move used to go on and mark an evicted
    page resident."""
    pool = make_pool(placement="dbcost5000", caps=(1, 1), backed=True)
    pool.access(0)
    pool.access(1)
    slow = pool.resident_in(1)[0]
    with pytest.raises(BufferPoolError, match="evicted making room"):
        pool.migrate(slow, 0)
    assert pool.tier_of(slow) is None
    pool.check_invariants()


def test_sampled_heat_array_is_heat():
    tracker = SampledTracker(sample_rate=1.0)
    for page in (3, 9, 3, FAR, 3):
        tracker.record(page)
    ids = np.array([9, 3, 4, FAR, 3], dtype=np.int64)
    heats = tracker.heat_array(ids)
    assert heats.dtype == np.float64
    assert heats.tolist() == [tracker.heat(p) for p in ids.tolist()]
    assert tracker.heat_array(ids[:0]).shape == (0,)


#: Tracker ids: mostly dense ones the bulk paths take, plus the side
#: table's (negative, at or past the dense ceiling).
tracked_ids = st.one_of(st.integers(0, 3_000), st.integers(0, 3_000),
                        st.integers(-3, -1),
                        st.integers(_MAX_DENSE_PIDS - 1, _MAX_DENSE_PIDS + 3))


@settings(max_examples=150, deadline=None)
@given(
    decay=st.sampled_from([0.5, 1e-3, 1.0]),
    ops=st.lists(st.one_of(
        st.tuples(st.just("record"), tracked_ids, st.booleans()),
        st.tuples(st.just("batch"), st.lists(tracked_ids, max_size=150),
                  st.booleans(), st.booleans()),
        st.tuples(st.just("block"), st.lists(
            st.tuples(tracked_ids, st.booleans()), max_size=150)),
        st.tuples(st.just("forget"), tracked_ids),
    ), max_size=25),
    probes=st.lists(st.one_of(tracked_ids, st.integers(3_000, 1 << 21)),
                    max_size=30),
)
def test_exact_heat_array_is_heat(decay, ops, probes):
    """The one-gather premise: every absent dense row holds 0.0, so a
    gather is elementwise :meth:`heat` — through scalar, batch (list
    and array) and mixed-flag block records, forgets, and aging past
    the 1e-6 cut-off (epochs of 7 accesses), for ids the side table
    keeps and ids past the current dense size."""
    tracker = ExactTracker(decay=decay, epoch_accesses=7)
    seen = []
    for op in ops:
        if op[0] == "record":
            tracker.record(op[1], is_scan=op[2])
            seen.append(op[1])
        elif op[0] == "batch":
            ids = np.array(op[1], dtype=np.int64) if op[3] else op[1]
            tracker.record_batch(ids, 0, len(op[1]), is_scan=op[2])
            seen += op[1]
        elif op[0] == "block":
            ids = [pid for pid, _ in op[1]]
            scans = np.array([flag for _, flag in op[1]], dtype=bool)
            tracker.record_block(np.array(ids, dtype=np.int64), scans,
                                 0, len(ids))
            seen += ids
        else:
            tracker.forget(op[1])
            seen.append(op[1])
    absent = ~tracker._present
    assert not tracker._harr[absent].any()
    for ids in (seen + probes, [pid for pid in seen + probes
                                if 0 <= pid < tracker._harr.shape[0]]):
        ids = np.array(ids, dtype=np.int64)
        assert tracker.heat_array(ids).tolist() == \
            [tracker.heat(pid) for pid in ids.tolist()]


def test_rebalance_builds_no_view_without_pins():
    """The placement paths check residency by ``tier_of`` and read the
    residency snapshot: no frame view is built."""
    pool = make_pool(placement="dbcost37", caps=(4, 8), backed=True)
    built = []
    original = pool.frame_of
    pool.frame_of = lambda page: built.append(page) or original(page)

    def heat_the_slow_tier():
        for page in pool.resident_in(1)[:2] * 40:
            pool.access(page)

    for page in range(12):
        pool.access(page)
    heat_the_slow_tier()
    assert pool.placement.moves > 0 and not built
    moves = pool.placement.moves
    heat_the_slow_tier()
    assert pool.placement.moves > moves and not built
