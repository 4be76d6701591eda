"""Fault-storm equivalence tests for the miss path.

The contract under test: miss runs — the block window's bulk backing
reads, ``choose_admit_tiers`` placement, ``victim_batch`` evictions
and array installs, and the scalar ``access → _fault → _install``
chain for the cascades the window cuts — leave pool state
**bit-identical** to the scalar reference, across object, block, and
quantum delivery, under tiny tier capacities that force cascades on
nearly every run.

Also here: the ``victim_batch``/``victim`` order-equivalence property
for LRU under random pin sets, the
``_resident_counts``/``tier_residents`` agreement assertion backing the
``_make_room`` satellite fix, and the ``preload``/``warm_with``
byte-identity contract.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.engine import ScaleUpEngine
from repro.core.placement import OSPagingPolicy, StaticPolicy
from repro.core.replacement import LRUPolicy
from repro.units import CACHE_LINE, PAGE_SIZE
from repro.workloads.scans import scan_blocks
from repro.workloads.traces import AccessBlock
from repro.workloads.ycsb import YCSBConfig, ycsb_blocks

from tests.core.test_access_batch import _pool_state, _scalar_drive
from tests.core.test_replacement import victim_batch_loop
from tests.oracle.reference import reference


def _cold_engine(dram_pages, cxl_pages, placement=None, fast=True):
    engine = ScaleUpEngine.build(
        dram_pages=dram_pages,
        cxl_pages=cxl_pages,
        placement=placement,
        name="storm",
    )
    return engine if fast else reference(engine)


def _assert_counts_agree(pool):
    """The `_make_room` satellite contract: the maintained counter
    array always agrees with the frame-table ground truth."""
    for t in range(len(pool.tiers)):
        assert pool._resident_counts[t] == pool.tier_residents(t)


def _random_runs(rng, pages, n_runs):
    """Cold-heavy randomized runs: long fresh ranges (pure fault
    storms), revisits (hits and demoted-page re-faults), and short
    scattered tails (short scalar stretches)."""
    runs = []
    cursor = 0
    for _ in range(n_runs):
        kind = rng.random()
        if kind < 0.5:
            length = rng.randint(40, 400)
            ids = list(range(cursor, cursor + length))
            cursor += length
        elif kind < 0.8:
            start = rng.randrange(max(1, cursor))
            length = rng.randint(20, 200)
            ids = list(range(start, start + length))
            cursor = max(cursor, start + length)
        else:
            ids = [rng.randrange(max(1, cursor + 50))
                   for _ in range(rng.randint(1, 12))]
        kwargs = {
            "nbytes": rng.choice([CACHE_LINE, PAGE_SIZE]),
            "write": rng.random() < 0.3,
            "is_scan": rng.random() < 0.5,
            "think_ns": rng.choice([0.0, 120.0]),
        }
        runs.append((ids, kwargs))
        if cursor >= pages:
            break
    return runs


@pytest.mark.parametrize("seed", [1, 7, 23, 91])
@pytest.mark.parametrize("dram,cxl", [(8, 16), (16, 48)])
def test_object_delivery_storm_equivalence(seed, dram, cxl):
    """access_run vs the scalar loop on cold randomized runs with
    tiny tiers: every fault cascades, state must match bit for bit."""
    rng = random.Random(seed)
    runs = _random_runs(rng, pages=4_000, n_runs=12)
    scalar = _cold_engine(dram, cxl, fast=False).pool
    fast = _cold_engine(dram, cxl, fast=True).pool
    total_s = 0.0
    total_f = 0.0
    for ids, kwargs in runs:
        total_s = _scalar_drive(scalar, ids, accum=total_s, **kwargs)
        total_f = fast.access_run(np.asarray(ids, dtype=np.int64),
                                  accum=total_f, **kwargs)
    assert repr(total_s) == repr(total_f)
    assert _pool_state(scalar) == _pool_state(fast)
    _assert_counts_agree(scalar)
    _assert_counts_agree(fast)


@pytest.mark.parametrize("seed", [3, 17])
def test_block_delivery_storm_equivalence(seed):
    """access_block (fast) vs scalar access loop (compat reference) on
    a cold over-capacity block trace with eviction cascades."""
    rng = random.Random(seed)
    pages = 3_000
    trace = list(scan_blocks(0, pages, repeats=2))
    trace += list(ycsb_blocks(YCSBConfig(
        mix="A", num_pages=pages, num_ops=1_500, seed=seed)))
    rng.shuffle(trace)
    compat = _cold_engine(16, 64, placement=OSPagingPolicy(), fast=False)
    fast = _cold_engine(16, 64, placement=OSPagingPolicy(), fast=True)
    r_c = compat.run(trace, label="storm")
    r_f = fast.run(trace, label="storm")
    assert repr(r_c.total_ns) == repr(r_f.total_ns)
    assert repr(r_c.demand_ns) == repr(r_f.demand_ns)
    assert r_c.misses == r_f.misses
    assert _pool_state(compat.pool) == _pool_state(fast.pool)
    _assert_counts_agree(fast.pool)


def test_quantum_delivery_storm_equivalence():
    """access_quantum on a cold pool: the fault lane engages inside
    quantum segments and matches the reference twin bit for bit."""
    pages = 2_000
    ids = np.arange(pages, dtype=np.int64)
    segs = [
        (0, 600, PAGE_SIZE, False, True, 0.0),
        (600, 1_200, CACHE_LINE, True, False, 90.0),
        (1_200, pages, PAGE_SIZE, False, True, 0.0),
    ]
    pool_c = _cold_engine(8, 32, placement=StaticPolicy(lambda _p: 1),
                          fast=False).pool
    acc_c = 0.0
    dem_c = []
    for a, b, nbytes, write, is_scan, think_ns in segs:
        acc_c = pool_c.access_run(ids[a:b], nbytes=nbytes, write=write,
                                  is_scan=is_scan, think_ns=think_ns,
                                  accum=acc_c)
        dem_c.append(repr(acc_c))
    pool_f = _cold_engine(8, 32, placement=StaticPolicy(lambda _p: 1),
                          fast=True).pool
    acc_f, demands = pool_f.access_quantum(ids, segs, 0.0)
    dem_f = [repr(d) for d in demands]
    assert repr(acc_c) == repr(acc_f)
    assert dem_c == dem_f
    assert _pool_state(pool_c) == _pool_state(pool_f)
    _assert_counts_agree(pool_f)


@pytest.mark.parametrize("policy_cls", [LRUPolicy])
@pytest.mark.parametrize("seed", list(range(8)))
def test_victim_batch_order_property(policy_cls, seed):
    """victim_batch(k) == k repeated victim()+remove() for random
    insert/touch histories (only LRU has a batch: the pool's bulk
    eviction drains LRU tiers only)."""
    rng = random.Random(seed)
    keys = list(range(rng.randint(5, 60)))
    a, b = policy_cls(), policy_cls()
    for key in keys:
        a.record_insert(key)
        b.record_insert(key)
    for _ in range(rng.randint(0, 80)):
        key = rng.choice(keys)
        a.record_access(key)
        b.record_access(key)
    k = rng.randint(0, len(keys) + 2)
    assert a.victim_batch(k) == victim_batch_loop(b, k)


def test_lru_peek_batch_is_nondestructive():
    policy = LRUPolicy()
    for key in range(10):
        policy.record_insert(key)
    policy.record_access(2)
    peeked = policy.peek_batch(4)
    assert peeked == [0, 1, 3, 4]
    assert policy.victim_batch(4) == peeked


def test_preload_matches_analytic_warm_up():
    """engine.preload must leave pool state (residency, stats, device
    counters, clock) byte-identical to warm_with on the same trace."""
    pages = 1_500
    analytic = _cold_engine(32, 128, placement=OSPagingPolicy(),
                            fast=False)
    bulk = _cold_engine(32, 128, placement=OSPagingPolicy(), fast=True)
    analytic.warm_with(scan_blocks(0, pages, repeats=1, think_ns=0.0))
    bulk.preload(np.arange(pages, dtype=np.int64), nbytes=PAGE_SIZE,
                 is_scan=True)
    assert _pool_state(analytic.pool) == _pool_state(bulk.pool)
    _assert_counts_agree(bulk.pool)


def test_preload_default_nbytes_matches_page_scan():
    """pool.preload defaults to a full-page scan read per id."""
    a = _cold_engine(16, 32, fast=True)
    b = _cold_engine(16, 32, fast=True)
    ids = np.arange(600, dtype=np.int64)
    a.pool.preload(ids, nbytes=PAGE_SIZE, is_scan=True)
    b.pool.access_run(ids, nbytes=PAGE_SIZE, is_scan=True)
    assert _pool_state(a.pool) == _pool_state(b.pool)


def test_long_single_span_preload_no_overflow():
    """Scalar-vs-bulk pool differential on one long window: a 32k-id
    cold preload folds its clock and demand chains over tens of
    thousands of steps at a small ulp, and must leave the pool exactly
    as the scalar warm-up does, with a positive clock."""
    total = 32_000
    a = _cold_engine(1, total + 16, placement=StaticPolicy(lambda _p: 1),
                     fast=False)
    b = _cold_engine(1, total + 16, placement=StaticPolicy(lambda _p: 1),
                     fast=True)
    a.warm_with(scan_blocks(0, total, repeats=1, think_ns=0.0))
    b.preload(np.arange(total, dtype=np.int64), nbytes=PAGE_SIZE,
              is_scan=True)
    assert b.pool.clock.now > 0
    assert _pool_state(a.pool) == _pool_state(b.pool)


def test_storm_block_object_agree():
    """The same cold storm delivered as one AccessBlock equals the
    object-at-a-time scalar drive (cross-delivery identity)."""
    pages = 900
    ids = np.arange(pages, dtype=np.int64)
    block = AccessBlock(
        page_id=ids,
        write=np.zeros(pages, dtype=bool),
        is_scan=np.ones(pages, dtype=bool),
        nbytes=np.full(pages, PAGE_SIZE, dtype=np.int64),
        think_ns=np.zeros(pages, dtype=np.float64),
    )
    scalar = _cold_engine(8, 24, fast=False).pool
    blocked = _cold_engine(8, 24, fast=True).pool
    total_s = _scalar_drive(scalar, ids.tolist(), nbytes=PAGE_SIZE,
                            is_scan=True)
    total_b = blocked.access_block(block)
    assert repr(total_s) == repr(total_b)
    assert _pool_state(scalar) == _pool_state(blocked)
