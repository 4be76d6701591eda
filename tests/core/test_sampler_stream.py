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


def heat_items(tracker):
    """Heats in insertion order, the ids as ints (the frozen sampler
    keys by the ids as given) and the heats bit for bit."""
    return [(int(pid), repr(h)) for pid, h in tracker._heat.items()]


def same(new, old):
    assert heat_items(new) == heat_items(old)
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


def test_batch_keys_are_python_ints():
    """Every route keys the heats by python ``int``, whatever the ids
    were given as: a column (long or short run), a list, one record."""
    tracker = SampledTracker(sample_rate=1.0)
    tracker.record_batch(np.array([3, 4], dtype=np.int32), 0, 2)
    tracker.record_batch(np.arange(100, 200, dtype=np.uint32), 0, 100)
    tracker.record_batch([np.int64(5)], 0, 1)
    tracker.record(np.int16(6))
    assert list(tracker._heat)[:3] == [3, 4, 100]
    assert {type(key) for key in tracker._heat} == {int}


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


def test_hottest_and_coldest_are_ints_after_a_block_window():
    """An OS-paged pool feeds its sampler a block's id column through
    the block window; the pages the sampler ranks are python ints."""
    from repro.core import OSPagingPolicy, ScaleUpEngine
    from repro.workloads import YCSBConfig, ycsb_blocks

    engine = ScaleUpEngine.build(dram_pages=64, cxl_pages=512,
                                 placement=OSPagingPolicy(sample_rate=0.2))
    engine.run(ycsb_blocks(YCSBConfig(mix="A", num_pages=600,
                                      num_ops=20_000, seed=3)))
    assert engine.pool.lane.exact_windows > 0
    tracker = engine.pool.placement.tracker
    hottest, coldest = tracker.hottest(50), tracker.coldest(50)
    assert hottest and coldest
    assert {type(pid) for pid in hottest + coldest} == {int}
