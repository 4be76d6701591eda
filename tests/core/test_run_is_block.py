"""A run is a one-shape block, and a declined block is quanta.

``access_run`` (and ``preload`` behind it) hands the pool the block of
its ids with the run's shape as constant columns, so the three entry
points leave one state and one set of route counters. A block the
window declines — ids past the dense table, a tracker without
``record_block``, a float size column — is ``access_quantum`` calls
over its uniform-shape segments, ``BLOCK_OPS`` accesses at most each.
Both routes check what they are given (a block's columns, a quantum's
segments) before anything is charged.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.buffer import TieredBufferPool
from repro.core.temperature import SampledTracker
from repro.errors import BufferPoolError
from repro.sim.context import SimContext
from repro.workloads.traces import BLOCK_OPS, AccessBlock
from tests.core.test_cold_fill import (
    PLACEMENTS,
    full_state,
    make_pool,
    point_block,
    twin_pools,
)


def one_shape_block(ids, nbytes=64, write=False, is_scan=False,
                    think_ns=0.0) -> AccessBlock:
    n = len(ids)
    return AccessBlock.from_columns(ids, np.full(n, write),
                                    np.full(n, is_scan), np.full(n, nbytes),
                                    np.full(n, think_ns))


def warmed(pool):
    for page in range(0, 48, 3):
        pool.access(page, write=page % 2 == 0)
    return pool


@pytest.mark.parametrize("placement, caps, backed", [
    ("static", (64, 64), False),
    ("static", (3, 5), True),
    ("dbcost37", (6, 10), True),
    ("ospaging", (6, 10), True),
])
@pytest.mark.parametrize("shape", [
    {}, dict(nbytes=4096, write=True, think_ns=35.5), dict(is_scan=True)])
def test_run_preload_and_block_leave_one_state(placement, caps, backed,
                                               shape):
    ids = np.random.default_rng(7).integers(0, 48, 200)
    seen = {}
    for entry in ("run", "preload", "block"):
        pool = warmed(make_pool(placement=placement, caps=caps,
                                backed=backed))
        if entry == "run":
            got = pool.access_run(ids, **shape)
        elif entry == "preload":
            got = pool.preload(ids.tolist(), **shape)
        else:
            got = pool.access_block(one_shape_block(ids, **shape))
        seen[entry] = (repr(got), full_state(pool), pool.lane.snapshot())
    assert seen["run"] == seen["preload"] == seen["block"]
    assert seen["run"][2]["segment_blocks"] == 0
    _, ref = twin_pools(placement=placement, caps=caps, backed=backed)
    want = warmed(ref).access_batch(ids.tolist(), **shape)
    assert seen["run"][:2] == (repr(want), full_state(ref))


def mixed_block(far: bool, float_sizes: bool) -> AccessBlock:
    """Four uniform-shape segments over 24 ids, some repeated."""
    ids = np.array([*range(12), 3, 5, 3, 20, 21, 22, 0, 1, 2, 30, 31, 32],
                   dtype=np.int64) + ((1 << 22) if far else 0)
    write = np.repeat([False, True, False, False], 6)
    is_scan = np.repeat([False, False, True, False], 6)
    nbytes = np.repeat([64, 64, 4096, 256], 6).astype(
        np.float64 if float_sizes else np.int64)
    if float_sizes:
        nbytes[18:] = 100.5
    think = np.repeat([0.0, 12.5, 0.0, 3.0], 6)
    return AccessBlock(page_id=ids, write=write, is_scan=is_scan,
                       nbytes=nbytes, think_ns=think)


def pool_for(reason):
    if reason != "tracker":
        return warmed(make_pool(placement="dbcost37", caps=(6, 10),
                                backed=True))
    # A tracker without record_block: DbCostPolicy ranks by an
    # ExactTracker only, so the case is a StaticPolicy pool's.
    pool = make_pool(caps=(6, 10), backed=True)
    return warmed(TieredBufferPool(
        tiers=pool.tiers, backing=pool.backing,
        placement=PLACEMENTS["static"](),
        tracker=SampledTracker(sample_rate=0.5), ctx=SimContext()))


@pytest.mark.parametrize("reason", ["id_range", "tracker", "nbytes"])
def test_a_declined_block_is_one_quantum(reason):
    block = mixed_block(far=reason == "id_range",
                        float_sizes=reason == "nbytes")
    bounds = block.segment_bounds()
    assert len(bounds) == 5
    segs = [(a, b, block.nbytes[a].item(), bool(block.write[a]),
             bool(block.is_scan[a]), float(block.think_ns[a]))
            for a, b in zip(bounds, bounds[1:])]
    by_block, by_quantum = pool_for(reason), pool_for(reason)
    got = by_block.access_block(block, accum=1.5)
    want, _ = by_quantum.access_quantum(block.page_id, segs, accum=1.5)
    assert repr(got) == repr(want)
    assert full_state(by_block) == full_state(by_quantum)
    lane, quantum_lane = (by_block.lane.snapshot(),
                          by_quantum.lane.snapshot())
    assert lane.pop("segment_blocks") == 1
    assert lane.pop("declines") == dict(
        dict.fromkeys(quantum_lane.pop("declines"), 0), **{reason: 1})
    quantum_lane.pop("segment_blocks")
    assert lane == quantum_lane


@pytest.mark.parametrize("entry", ["block", "run", "preload"])
def test_a_float_size_column_declines_the_window(entry):
    """A float ``nbytes`` column used to raise a bare ``TypeError``
    from the window's shape key; it now takes the segment route and
    equals the scalar reference."""
    fast, ref = twin_pools(placement="static", caps=(6, 10), backed=True)
    ids = np.array([0, 1, 9, 1, 0, 33], dtype=np.int64)
    block = AccessBlock(page_id=ids, write=np.zeros(6, bool),
                        is_scan=np.zeros(6, bool),
                        nbytes=np.full(6, 100.5), think_ns=np.full(6, 2.0))
    want = ref.access_block(block)
    if entry == "block":
        got = fast.access_block(block)
    else:
        got = getattr(fast, f"access_{entry}" if entry == "run"
                      else entry)(ids, nbytes=100.5, think_ns=2.0)
    assert repr(got) == repr(want)
    assert full_state(fast) == full_state(ref)
    assert fast.lane.declines["nbytes"] == fast.lane.segment_blocks == 1


def malformed(kind: str) -> AccessBlock:
    n = 4
    cols = dict(page_id=np.arange(n, dtype=np.int64),
                write=np.zeros(n, bool), is_scan=np.zeros(n, bool),
                nbytes=np.full(n, 64), think_ns=np.zeros(n))
    if kind == "bool ids":
        cols["page_id"] = np.ones(n, bool)
    elif kind == "float ids":
        cols["page_id"] = np.arange(n, dtype=np.float64)
    elif kind == "short write":
        cols["write"] = np.ones(1, bool)
    elif kind == "short think":
        cols["think_ns"] = np.full(1, 5.0)
    else:
        cols.update(write=np.ones(n + 2, bool), is_scan=np.zeros(n + 2, bool),
                    nbytes=np.full(n + 2, 64), think_ns=np.zeros(n + 2))
    return AccessBlock(**cols)


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("kind", ["bool ids", "float ids", "short write",
                                  "short think", "long shape columns"])
def test_a_malformed_block_is_refused_before_any_charge(kind, warm):
    """A block built without ``from_columns`` used to fail deep inside
    numpy (bool or float ids, a short write column) after charging
    part of it, or to be charged as something else (a short think
    column broadcast, longer shape columns cut to the ids)."""
    pool = make_pool(backed=True)
    if warm:
        pool.access_block(point_block(range(4)))
    before = full_state(pool)
    with pytest.raises(BufferPoolError):
        pool.access_block(malformed(kind))
    assert full_state(pool) == before


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("bounds", [
    [(0, 10)], [(-2, 4)], [(3, 1)], [(0, 3), (1, 4)], [(0, 1), (2, 4)]],
    ids=["past-end", "negative", "reversed", "overlap", "gap"])
def test_quantum_segments_must_tile_the_column(bounds, warm):
    """On a 4-id column these used to charge a count that depended on
    the pool being warm: ``(0, 10)`` 4 cold and 10 warm, ``(-2, 4)``
    (a python negative slice) 2 and 6, ``(3, 1)`` nothing, the overlap
    6 and 4."""
    pool = make_pool(backed=True)
    ids = np.arange(4, dtype=np.int64)
    if warm:
        pool.access_block(point_block(ids))
    before = full_state(pool)
    with pytest.raises(BufferPoolError, match="segment"):
        pool.access_quantum(ids, [(a, b, 64, False, False, 0.0)
                                  for a, b in bounds])
    assert full_state(pool) == before
    # A stretch that starts inside the column, with an empty segment.
    accesses = pool.stats.accesses
    pool.access_quantum(ids, [(1, 1, 64, False, False, 0.0),
                              (1, 4, 64, True, False, 0.0)])
    assert pool.stats.accesses == accesses + 3


@pytest.mark.parametrize("miss", [False, True], ids=["all-hit", "one-miss"])
def test_a_declined_block_is_cut_into_quanta(miss):
    """A declined block is cut into quanta of at most ``BLOCK_OPS``
    accesses, so 100 k hits with a float size column take the hit
    kernel quantum by quantum (they took the scalar loop whole, as one
    quantum past the settle bound) and one miss sends its own quantum
    to the scalar loop, once; both equal the scalar reference."""
    fast, ref = twin_pools(placement="static", caps=(128, 128))
    n = 100_000
    ids = np.random.default_rng(5).integers(0, 128, n)
    if miss:
        ids[70_000] = 200
    block = AccessBlock(page_id=ids, write=ids % 7 == 0,
                        is_scan=np.zeros(n, bool),
                        nbytes=np.full(n, 64.0), think_ns=np.full(n, 1.5))
    for pool in (fast, ref):
        pool.access_block(point_block(np.arange(128)))
    got = fast.access_block(block, accum=0.5)
    assert repr(got) == repr(ref.access_block(block, accum=0.5))
    assert full_state(fast) == full_state(ref)
    lane = fast.lane
    assert lane.declines["nbytes"] == lane.segment_blocks == 1
    assert lane.quantum_scalar == {"id_range": 0, "headroom": 0,
                                   "miss": int(miss)}
    assert lane.quantum_spans == -(-n // BLOCK_OPS) - int(miss)
