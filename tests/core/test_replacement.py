"""Eviction policies: LRU, CLOCK, 2Q, LRU-K.

:class:`LRUPolicy` keeps recency as a column of sequence stamps; the
``OrderedDict`` implementation it replaced lives on here as
:class:`ReferenceLRU`, the model a hypothesis state machine drives the
column against.
"""

import sys
from collections import OrderedDict
from itertools import islice

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.core.replacement import (
    DENSE_KEYS,
    POLICIES,
    ClockPolicy,
    LRUKPolicy,
    LRUPolicy,
    TwoQPolicy,
    _check_batch,
    make_policy,
)
from repro.errors import BufferPoolError
from tests.core.test_cold_fill import make_pool, point_block

ALL_POLICIES = sorted(POLICIES)


def victim_batch_loop(policy, k):
    """The reference ``victim_batch``: *k* rounds of ``victim()`` then
    ``remove``, stopping once no page is left.
    ``LRUPolicy.victim_batch`` must return exactly this sequence; the
    other policies have no batch (the pool drains LRU tiers only)."""
    _check_batch(k)
    victims = []
    for _ in range(k):
        key = policy.victim()
        if key is None:
            break
        policy.remove(key)
        victims.append(key)
    return victims


@pytest.mark.parametrize("name", ALL_POLICIES)
class TestCommonBehaviour:
    """Contract every policy honors."""

    def test_insert_then_victim(self, name):
        policy = make_policy(name)
        policy.record_insert(1)
        assert policy.victim() == 1

    def test_remove_untracks(self, name):
        policy = make_policy(name)
        policy.record_insert(1)
        policy.remove(1)
        assert policy.victim() is None
        assert len(policy) == 0

    def test_remove_is_idempotent(self, name):
        policy = make_policy(name)
        policy.record_insert(1)
        policy.remove(1)
        policy.remove(1)  # must not raise

    def test_duplicate_insert_rejected(self, name):
        policy = make_policy(name)
        policy.record_insert(1)
        with pytest.raises(BufferPoolError):
            policy.record_insert(1)

    def test_access_to_untracked_rejected(self, name):
        with pytest.raises(BufferPoolError):
            make_policy(name).record_access(42)

    def test_len_tracks_population(self, name):
        policy = make_policy(name)
        for key in range(5):
            policy.record_insert(key)
        assert len(policy) == 5

    def test_victim_is_tracked_member(self, name):
        policy = make_policy(name)
        keys = list(range(10))
        for key in keys:
            policy.record_insert(key)
        for key in (2, 4, 6):
            policy.record_access(key)
        assert policy.victim() in keys

    def test_batch_size_edges(self, name):
        """``k < 0`` is refused by name (LRU used to leak ``islice``'s
        ``ValueError``); ``k == 0`` is an empty batch that touches
        nothing. LRU's batches and the reference loop alike."""
        policy = make_policy(name)
        for key in (1, 2, 3):
            policy.record_insert(key)
        batches = [lambda k: victim_batch_loop(policy, k)]
        if name == "lru":
            batches += [policy.victim_batch, policy.peek_batch]
        for batch in batches:
            with pytest.raises(BufferPoolError, match="batch size"):
                batch(-1)
            assert batch(0) == []
        assert len(policy) == 3
        drain = policy.victim_batch if name == "lru" else batches[0]
        assert drain(5) == [1, 2, 3]


class TestLRUSpecifics:
    def test_evicts_least_recent(self):
        policy = LRUPolicy()
        for key in (1, 2, 3):
            policy.record_insert(key)
        policy.record_access(1)
        assert policy.victim() == 2

    def test_access_refreshes(self):
        policy = LRUPolicy()
        for key in (1, 2):
            policy.record_insert(key)
        policy.record_access(1)
        policy.record_access(2)
        assert policy.victim() == 1


class TestClockSpecifics:
    def test_second_chance(self):
        policy = ClockPolicy()
        for key in (1, 2, 3):
            policy.record_insert(key)
        # All referenced: the sweep clears 1's bit first, so 1 is
        # evicted on the second pass.
        assert policy.victim() == 1

    def test_referenced_page_survives_one_sweep(self):
        policy = ClockPolicy()
        for key in (1, 2):
            policy.record_insert(key)
        policy.victim()           # sweeps, returns a victim
        policy.record_access(2)   # re-reference 2
        assert policy.victim() != 2 or len(policy) == 1


class TestTwoQSpecifics:
    def test_scan_resistance(self):
        """One-shot insertions must not displace the re-referenced set."""
        policy = TwoQPolicy(probation_fraction=0.5)
        for key in (1, 2):
            policy.record_insert(key)
            policy.record_access(key)  # promoted to Am
        for scan_key in range(100, 110):
            policy.record_insert(scan_key)
            victim = policy.victim()
            # Victims come from the scan (probation), not the hot set.
            assert victim not in (1, 2)
            policy.remove(victim)

    def test_rereference_promotes(self):
        policy = TwoQPolicy()
        policy.record_insert(1)
        policy.record_access(1)   # now in Am
        policy.record_insert(2)   # probation
        assert policy.victim() == 2

    def test_invalid_fraction(self):
        with pytest.raises(BufferPoolError):
            TwoQPolicy(probation_fraction=0.0)


class TestLRUKSpecifics:
    def test_single_reference_pages_evicted_first(self):
        policy = LRUKPolicy(k=2)
        policy.record_insert(1)
        policy.record_access(1)   # 1 has two references
        policy.record_insert(2)   # 2 has one
        assert policy.victim() == 2

    def test_oldest_kth_reference_loses(self):
        policy = LRUKPolicy(k=2)
        for key in (1, 2):
            policy.record_insert(key)
            policy.record_access(key)
        # refs: 1 -> (t1, t2), 2 -> (t3, t4); another access to 1
        # leaves its 2nd-most-recent at t2, still older than 2's t3,
        # so 1 has the larger backward-K distance and is evicted.
        policy.record_access(1)
        assert policy.victim() == 1

    def test_invalid_k(self):
        with pytest.raises(BufferPoolError):
            LRUKPolicy(k=0)


class TestFactory:
    def test_unknown_name(self):
        with pytest.raises(BufferPoolError):
            make_policy("nonsense")

    def test_all_names_construct(self):
        for name in ALL_POLICIES:
            assert make_policy(name) is not None


# -- LRU as a column, against the implementation it replaced --------------

class ReferenceLRU:
    """``LRUPolicy`` as it was: an ``OrderedDict`` kept in recency
    order, one ``move_to_end`` per touch. Batches are the scalar
    loops, except ``record_insert_batch``, whose refusal tracked every
    new key of the batch before it raised."""

    def __init__(self) -> None:
        self._order: OrderedDict[int, None] = OrderedDict()

    def record_insert(self, key):
        if key in self._order:
            raise BufferPoolError(f"duplicate insert of {key}")
        self._order[key] = None

    def record_insert_batch(self, keys):
        order = self._order
        before = len(order)
        for key in keys:
            order[key] = None
        if len(order) != before + len(keys):
            seen = set()
            for key in keys:
                if key in seen:
                    raise BufferPoolError(f"duplicate insert of {key}")
                seen.add(key)
            raise BufferPoolError(
                f"duplicate insert in batch of {len(keys)} keys")

    def record_access(self, key):
        if key not in self._order:
            raise BufferPoolError(f"access to untracked {key}")
        self._order.move_to_end(key)

    def record_access_batch(self, keys, start, end):
        for key in keys[start:end]:
            self.record_access(key)

    def remove(self, key):
        self._order.pop(key, None)

    def move_batch(self, leaving, arriving, hi):
        for key in leaving:
            self.remove(key)
        for key in arriving:
            self.record_insert(key)

    def victim(self):
        return next(iter(self._order), None)

    def victim_batch(self, k):
        victims = list(islice(self._order, k))
        for key in victims:
            del self._order[key]
        return victims

    def peek_batch(self, k):
        return list(islice(self._order, k))

    def order(self):
        return list(self._order)

    def __len__(self):
        return len(self._order)


#: A small universe, so inserts collide and touches land: dense keys
#: (some past the column's first 1,024 slots, so it grows), keys at
#: and above ``DENSE_KEYS``, negative keys, and one no int64 holds.
KEYS = st.one_of(
    st.integers(0, 24),
    st.sampled_from([1023, 1024, 5000]),
    st.integers(0, 6).map(lambda k: DENSE_KEYS + k),
    st.integers(-4, -1),
    st.just(2 ** 70),
)
DENSE = st.one_of(st.integers(0, 24), st.sampled_from([1023, 1024, 5000]))
#: Batches with repeats; mostly dense, so the array path is what runs.
RUNS = st.one_of(st.lists(DENSE, max_size=12), st.lists(KEYS, max_size=12))
FORMS = st.sampled_from(["list", "int64", "int32", "strided"])


def as_column(keys, form):
    """*keys* as the pool may hand them over: a list, or an ndarray
    (int64, int32, or a strided view) when every key fits one."""
    if form == "list" or not all(-2 ** 31 <= key < 2 ** 31 for key in keys):
        return list(keys)
    if form == "strided":
        wide = np.full(2 * len(keys), -7, dtype=np.int64)
        wide[::2] = keys
        return wide[::2]
    return np.array(keys, dtype=form)


class LRUMachine(RuleBasedStateMachine):
    """Every call goes to the column and to the model; results,
    refusals (type and message) and the order afterwards must agree —
    the order also after a refusal, which pins the partial state."""

    def __init__(self):
        super().__init__()
        self.policy = LRUPolicy()
        self.model = ReferenceLRU()

    def both(self, call, model_call=None):
        outcomes = []
        for target, op in ((self.policy, call),
                           (self.model, model_call or call)):
            try:
                outcomes.append(("returned", op(target)))
            except BufferPoolError as exc:
                outcomes.append(("refused", str(exc)))
        assert outcomes[0] == outcomes[1]

    @rule(key=KEYS)
    def insert(self, key):
        self.both(lambda p: p.record_insert(key))

    @rule(keys=RUNS, form=FORMS)
    def insert_batch(self, keys, form):
        self.both(lambda p: p.record_insert_batch(as_column(keys, form)),
                  lambda m: m.record_insert_batch(keys))

    @rule(key=KEYS)
    def access(self, key):
        self.both(lambda p: p.record_access(key))

    @rule(keys=RUNS, form=FORMS, cut=st.tuples(st.integers(0, 12),
                                               st.integers(0, 12)))
    def access_batch(self, keys, form, cut):
        start, end = min(cut), min(max(cut), len(keys))
        self.both(lambda p: p.record_access_batch(
            as_column(keys, form), start, end),
            lambda m: m.record_access_batch(keys, start, end))

    @rule(keys=RUNS)
    def touch_tracked(self, keys):
        """A batch of tracked keys, so the put itself runs often."""
        tracked = self.model.order()
        if tracked:
            run = [tracked[key % len(tracked)] for key in keys]
            self.both(lambda p: p.record_access_batch(run, 0, len(run)))

    @rule(key=KEYS)
    def remove(self, key):
        self.both(lambda p: p.remove(key))

    @rule(picks=st.lists(st.integers(0, 40), max_size=6, unique=True),
          fresh=st.lists(DENSE, max_size=8, unique=True))
    def move_batch(self, picks, fresh):
        """Tracked dense keys leave and untracked ones arrive, as a
        pool's move commit hands them over."""
        tracked = [key for key in self.model.order()
                   if 0 <= key < DENSE_KEYS]
        leaving = sorted({tracked[i % len(tracked)] for i in picks}
                         if tracked else ())
        arriving = [key for key in fresh if key not in self.model._order]
        hi = max(leaving + arriving, default=0)
        self.both(lambda p: p.move_batch(np.array(leaving, dtype=np.int64),
                                         np.array(arriving, dtype=np.int64),
                                         hi),
                  lambda m: m.move_batch(leaving, arriving, hi))

    @rule()
    def victim(self):
        self.both(lambda p: p.victim())

    @rule(k=st.integers(0, 12))
    def victim_batch(self, k):
        self.both(lambda p: p.victim_batch(k))

    @rule(k=st.integers(0, 40))
    def peek_batch(self, k):
        self.both(lambda p: p.peek_batch(k))

    @rule(k=st.integers(0, 40))
    def front_column(self, k):
        if not all(-2**63 <= key < 2**63 for key in self.model.order()):
            return       # a column holds int64 keys, as a pool's are

        def column(policy):
            keys = policy.front_column(k)
            assert keys.dtype == np.int64
            return keys.tolist()
        self.both(column, lambda m: m.peek_batch(k))

    @invariant()
    def same_order(self):
        assert self.policy.order() == self.model.order()
        assert len(self.policy) == len(self.model)


def test_lru_column_matches_the_ordered_dict_model():
    run_state_machine_as_test(LRUMachine, settings=settings(
        max_examples=200, stateful_step_count=40, deadline=None))


def twins(keys=()):
    policy, model = LRUPolicy(), ReferenceLRU()
    for target in (policy, model):
        target.record_insert_batch(list(keys))
    return policy, model


class TestLRUColumn:
    def test_touching_every_key_exhausts_the_snapshot(self):
        policy, model = twins(range(8))
        assert policy.victim() == 0          # sorts the first snapshot
        for target in (policy, model):
            target.record_access_batch([3, 1, 0, 2, 7, 6, 5, 4], 0, 8)
        assert policy.victim() == model.victim() == 3
        assert policy.rebuilds == 2 and policy.stale_skipped == 8
        assert policy.order() == model.order()

    def test_remove_then_reinsert_is_not_the_old_entry(self):
        policy, model = twins(range(4))
        assert policy.peek_batch(4) == [0, 1, 2, 3]
        for target in (policy, model):
            target.remove(0)
            target.record_insert(0)
        assert policy.victim() == model.victim() == 1
        assert policy.victim_batch(4) == model.victim_batch(4) == [1, 2, 3, 0]

    def test_victim_batch_spans_a_rebuild(self):
        policy, model = twins(range(6))
        assert policy.victim() == 0
        for target in (policy, model):
            target.record_access_batch([1, 0], 0, 2)
            target.record_insert(9)
        # 2..5 come off the old snapshot, 1, 0, 9 off the next.
        assert policy.victim_batch(7) == model.victim_batch(7) == \
            [2, 3, 4, 5, 1, 0, 9]
        assert policy.rebuilds == 2 and len(policy) == 0

    def test_peek_spanning_a_rebuild_names_no_key_twice(self):
        policy, model = twins(range(6))
        assert policy.victim() == 0
        for target in (policy, model):
            target.record_access(2)
        assert policy.peek_batch(6) == model.peek_batch(6) == \
            [0, 1, 3, 4, 5, 2]

    def test_the_dense_range_ends_where_the_pool_says(self):
        run = [DENSE_KEYS - 1, DENSE_KEYS, 3]
        policy, model = twins(run)
        assert policy._cap == DENSE_KEYS and list(policy._far) == [DENSE_KEYS]
        for target in (policy, model):
            target.record_access_batch(run, 0, 2)
        assert policy.victim_batch(3) == model.victim_batch(3) == \
            [3, DENSE_KEYS - 1, DENSE_KEYS]

    @pytest.mark.parametrize("form", ["list", "int64", "int32", "strided"])
    def test_untracked_key_mid_batch_leaves_the_scalar_loops_state(
            self, form):
        policy, model = twins(range(6))
        run = [4, 2, 4, 77, 0]
        for target, keys in ((policy, as_column(run, form)), (model, run)):
            with pytest.raises(BufferPoolError,
                               match="^access to untracked 77$"):
                target.record_access_batch(keys, 0, 5)
        assert policy.order() == model.order() == [0, 1, 3, 5, 2, 4]

    def test_refused_insert_batch_leaves_the_old_partial_state(self):
        for run, message in (([7, 8, 7, 9], "duplicate insert of 7"),
                             ([7, 1, 8], "duplicate insert in batch of 3")):
            policy, model = twins(range(3))
            for target in (policy, model):
                with pytest.raises(BufferPoolError, match=message):
                    target.record_insert_batch(run)
            assert policy.order() == model.order()
            assert len(policy) == len(model)

    def test_the_touch_is_not_per_key(self):
        """One batch of 4,096 tracked ids is a handful of array calls,
        however many interpreter-level calls a key would cost."""
        ids = np.arange(4096)
        policy = LRUPolicy()
        policy.record_insert_batch(ids)
        calls = 0

        def count(_frame, event, _arg):
            nonlocal calls
            calls += event in ("call", "c_call")

        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            policy.record_access_batch(ids[::-1], 0, 4096)
        finally:
            sys.setprofile(previous)
        assert calls <= 64
        assert policy.victim() == 4095

    def test_recency_counters_do_not_see_the_trace_sink(self):
        """``pool.lane`` reports the tiers' rebuild and stale-skip
        counts; attaching a sink changes neither."""
        def lane(traced):
            pool = make_pool(caps=(8, 8), backed=True, traced=traced)
            for block in (range(0, 32, 2), [2, 0, 40, 42, 44, 6], [4, 50]):
                pool.access_block(point_block(block))
            for page in (60, 62):
                pool.access(page)
            return pool.ctx.snapshot()["pool"]["lane"]

        plain, traced = lane(False), lane(True)
        assert plain == traced
        assert plain["recency_rebuilds"] > 0
        assert plain["recency_stale_skips"] > 0
