"""The OS-side sampler draws its stream in bulk and stays the scalar
sampler: against the frozen one-draw-per-access tracker in
:mod:`tests.oracle.sampler`, mixed ``record`` / ``record_batch`` calls
leave the same heats in the same insertion order (``hottest`` breaks
ties by it), the same epoch counter, and the same doubles next in the
stream after every call.
"""

from __future__ import annotations

import copy
import random

import numpy as np
import pytest

from repro.core.temperature import SampledTracker
from tests.oracle import sampler


def stream_at(tracker, count=5):
    """The next *count* doubles the tracker would consume (drawn from
    a copy, so the tracker's own stream does not move)."""
    twin = copy.deepcopy(tracker)
    if isinstance(twin._rng, random.Random):
        return [twin._rng.random() for _ in range(count)]
    return twin._draws(count).tolist()


def same(new, old):
    assert repr(list(new._heat.items())) == repr(list(old._heat.items()))
    assert new._since_epoch == old._since_epoch
    assert stream_at(new) == stream_at(old)


@pytest.mark.parametrize("epoch", [1, 2, 3, 10_000])
@pytest.mark.parametrize("rate", [0.01, 0.5, 1.0])
@pytest.mark.parametrize("seed", [0x5eed, 0, 2**70 + 3])
def test_mixed_calls_equal_the_scalar_sampler(epoch, rate, seed):
    kwargs = dict(sample_rate=rate, epoch_accesses=epoch, seed=seed)
    new, old = SampledTracker(**kwargs), sampler.SampledTracker(**kwargs)
    same(new, old)
    rng = random.Random(seed ^ epoch)
    for _ in range(60):
        kind = rng.choice(["record", "array", "array", "list", "empty"])
        if kind == "record":
            page = rng.randrange(40)
            new.record(page)
            old.record(page)
        else:
            n = 0 if kind == "empty" else rng.choice([1, 5, 63, 64, 1500])
            ids = np.array([rng.randrange(40) for _ in range(n + 7)],
                           dtype=np.int64)
            if kind == "list":
                ids = ids.tolist()
            start = rng.randrange(8)
            end = min(start + n, len(ids))
            new.record_batch(ids, start, end)
            old.record_batch(ids, start, end)
        same(new, old)
    assert stream_at(new, 3_000) == stream_at(old, 3_000)
    for floor in (0.0, 1.0, 2.0, 1e9):
        assert new.hottest(10, floor) == old.hottest(10, floor)
    assert new.coldest(5) == old.coldest(5)


def test_batch_keys_are_the_ids_as_given():
    """A column's ids key the heats as its elements, as the loop's
    ``page_ids[i]`` did; a list's as its ints."""
    tracker = SampledTracker(sample_rate=1.0)
    tracker.record_batch(np.array([3, 4], dtype=np.int32), 0, 2)
    tracker.record_batch([5], 0, 1)
    assert [type(key) for key in tracker._heat] == [np.int32, np.int32, int]


def test_unseeded_sampler_draws_a_valid_stream():
    tracker = SampledTracker(sample_rate=0.5, seed=None)
    tracker.record_batch(np.arange(1_000), 0, 1_000)
    assert 300 < sum(tracker._heat.values()) < 700


def test_hottest_with_no_page_at_the_floor_is_empty():
    tracker = SampledTracker(sample_rate=1.0)
    assert tracker.hottest(4, 2.0) == []
    tracker.record(7)
    assert tracker.hottest(4, 2.0) == []
    tracker.record(7)
    assert tracker.hottest(4, 2.0) == [7]
