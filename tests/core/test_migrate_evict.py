"""A run of moves that overfills a tier draining to storage commits as
columns: its victims are the tier's LRU prefix, evicted by the block
window's bulk body (``_evict_charge`` / ``_evict_apply``). Held
**bit-identical** to :func:`tests.core.rebalance_oracle.migrate_loop`,
one scalar ``migrate`` per page, on frames, columns, replacement order,
every stat, the devices (page file included), the clock and the trace;
every run the commit may not take is declined with a named reason and
left to the per-page step.
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import config
from repro.core import buffer
from repro.core.buffer import _RES_MAX_PIDS, Tier, TieredBufferPool
from repro.core.engine import RUN_OPS, ScaleUpEngine
from repro.core.placement import DbCostPolicy, OSPagingPolicy
from repro.errors import ConfigError
from repro.sim.clock import SimClock
from repro.sim.context import SimContext
from repro.sim.interconnect import AccessPath
from repro.sim.memory import MemoryDevice
from repro.sim.trace import MemoryTraceSink
from repro.storage.disk import StorageDevice
from repro.storage.file import PageFile
from repro.units import PAGE_SIZE
from repro.workloads import scan_blocks
from repro.workloads.ycsb import YCSBConfig, ycsb_blocks
from tests.core.test_rebalance import full_state, run_both

FAR = _RES_MAX_PIDS + 5


def backed_pool(capacities, traced=True, backed=True):
    """DRAM over one CXL tier per further capacity, a page file (or
    none: an anonymous pool), OS paging with its passes switched off:
    first touch fills the top tier with room, tier i demotes into
    i + 1, and the last tier drains to storage."""
    specs = [config.local_ddr5()] + \
        [config.cxl_expander_ddr5()] * (len(capacities) - 1)
    tiers = [
        Tier(name=f"t{i}", path=AccessPath(device=MemoryDevice(spec)),
             capacity_pages=cap)
        for i, (spec, cap) in enumerate(zip(specs, capacities))
    ]
    ctx = SimContext(trace=MemoryTraceSink()) if traced else SimContext()
    backing = PageFile(StorageDevice()) if backed else None
    return TieredBufferPool(tiers=tiers, backing=backing, ctx=ctx,
                            placement=OSPagingPolicy(check_interval=10**9))


def twins(capacities, pages, traced=True, backed=True, dirty_every=3):
    """Two identical pools, pages ``0 .. pages-1`` faulted in order,
    every *dirty_every*-th one written (0: all clean)."""
    pools = [backed_pool(capacities, traced, backed) for _ in range(2)]
    for pool in pools:
        for page in range(pages):
            pool.access(page, write=bool(dirty_every)
                        and page % dirty_every == 0)
    return pools


def state(pool):
    """``full_state`` plus what an eviction leaves in storage."""
    out = full_state(pool)
    if pool.backing is not None:
        out["storage"] = dataclasses.asdict(pool.backing.device.stats)
        out["registered"] = pool.backing.page_count
    out["lane"] = {"evictions": [t.evictions for t in pool.stats.per_tier]}
    return out


def compare(batched, looped, ids, tiers):
    """``run_both`` plus the storage and eviction state."""
    outcome = run_both(batched, looped, ids, tiers)
    assert state(batched) == state(looped)
    return outcome


def demote_pass(pool, k, to=1):
    """The first *k* residents of tier 0 in residency order, bound
    for tier *to* — the shape of an OS-paging demote pass."""
    ids = sorted(pool.resident_in(0))[:k]
    return np.array(ids, dtype=np.int64), np.full(len(ids), to)


class TestColumnEviction:
    @pytest.mark.parametrize("traced", [True, False])
    @pytest.mark.parametrize("dirty_every", [0, 1, 3])
    def test_demote_pass_into_a_full_tier_is_one_commit(self, traced,
                                                        dirty_every):
        batched, looped = twins((80, 100), 240, traced,
                                dirty_every=dirty_every)
        assert batched.tier_residents(1) == 100
        ids, tos = demote_pass(batched, 64)
        compare(batched, looped, ids, tos)
        assert batched.lane.column_migrations == 64
        assert batched.lane.step_migrations == 0
        assert batched.stats.per_tier[1].evictions > 0
        assert (batched.stats.writebacks > 0) == bool(dirty_every)

    def test_tier_filling_mid_run_evicts_only_the_overflow(self):
        """90 residents of 100: the first ten arrivals take free
        frames, the last 54 each evict one."""
        batched, looped = twins((80, 100), 170)
        assert batched.tier_residents(1) == 90
        ids, tos = demote_pass(batched, 64)
        compare(batched, looped, ids, tos)
        assert batched.lane.column_migrations == 64
        assert batched.stats.per_tier[1].evictions == 54

    def test_session_clock_takes_the_time(self):
        batched, looped = twins((80, 100), 240)
        clocks = [SimClock(5.0), SimClock(5.0)]
        for pool, clock in zip((batched, looped), clocks):
            pool.session_begin(clock, contended=False)
        compare(batched, looped, *demote_pass(batched, 70))
        assert repr(clocks[0].now) == repr(clocks[1].now) and \
            clocks[0].now > 5.0
        assert batched.lane.column_migrations == 70

    def test_last_of_three_tiers_and_a_free_middle_one(self):
        """Moves into the storage-draining tier evict; moves into the
        middle tier, which has room, do not."""
        batched, looped = twins((70, 40, 60), 190)
        for pool in (batched, looped):
            for page in sorted(pool.resident_in(1))[:8]:
                pool.migrate(page, 2)
        ids, _ = demote_pass(batched, 64)
        tos = np.where(np.arange(64) % 16 == 0, 1, 2)
        compare(batched, looped, ids, tos)
        assert batched.lane.column_migrations == 64
        assert batched.tier_residents(1) == 36

    def test_tiny_caps_through_a_short_run(self, monkeypatch):
        """With the commit offered every run, a two-frame tier takes
        its two evictions in one commit."""
        monkeypatch.setattr(buffer, "_COLUMN_MOVES", 1)
        batched, looped = twins((3, 2), 8)
        compare(batched, looped, [0, 1], [1, 1])
        assert batched.lane.column_migrations == 2
        compare(batched, looped, [2, 0], [1, 0])

    def test_one_step_charge_per_eviction_at_scalar_parity(self):
        """Return value, clock and migration time read the same floats
        as the loop, which composes ((0.0 + E) + read) + write."""
        batched, looped = twins((80, 100), 240, dirty_every=2)
        total = compare(batched, looped, *demote_pass(batched, 64))
        assert float(total) > 0.0
        assert repr(batched.stats.migration_time_ns) == \
            repr(looped.stats.migration_time_ns)


class TestDeclines:
    """Each run the commit may not take goes to the per-page step,
    counted under its reason, and still ends in the loop's state."""

    def declined(self, batched, why):
        snapshot = batched.lane.snapshot()["migrate_declines"]
        assert snapshot[why] == 1, snapshot
        assert sum(snapshot.values()) == 1
        assert batched.lane.column_migrations == 0

    def test_cascade_tier(self):
        """Tier 0 demotes into tier 1: overfilling it moves victims."""
        batched, looped = twins((80, 100), 240)
        ids = np.array(sorted(batched.resident_in(1))[:64])
        compare(batched, looped, ids, np.zeros(64, dtype=np.int64))
        self.declined(batched, "cascade")

    def test_anonymous_pool(self):
        batched, looped = twins((80, 100), 240, backed=False)
        compare(batched, looped, *demote_pass(batched, 64))
        self.declined(batched, "victims")

    def test_more_evictions_than_residents(self, monkeypatch):
        monkeypatch.setattr(buffer, "_COLUMN_MOVES", 1)
        batched, looped = twins((70, 3), 73)
        compare(batched, looped, *demote_pass(batched, 10))
        self.declined(batched, "victims")

    def test_a_move_out_of_the_overfilled_tier(self):
        batched, looped = twins((80, 100), 240)
        ids, tos = demote_pass(batched, 64)
        leaving = max(batched.resident_in(1))
        ids, tos = np.append(ids, leaving), np.append(tos, 0)
        for pool in (batched, looped):
            pool.migrate(int(sorted(pool.resident_in(0))[-1]), 1)
        compare(batched, looped, ids, tos)
        self.declined(batched, "victims")

    def test_a_victim_the_run_leaves_in_place(self):
        """The run names the overfilled tier's oldest page with its own
        tier: its turn would find it evicted, so the step raises."""
        batched, looped = twins((80, 100), 240)
        ids, tos = demote_pass(batched, 64)
        oldest = batched.tiers[1].policy.peek_batch(1)[0]
        ids, tos = np.append(ids, oldest), np.append(tos, 1)
        assert compare(batched, looped, ids, tos).startswith(
            "BufferPoolError")
        self.declined(batched, "victims")

    def test_failed_page_file_under_a_dirty_victim(self):
        batched, looped = twins((80, 100), 240, dirty_every=1)
        for pool in (batched, looped):
            pool.backing.device.fail()
        assert compare(batched, looped, *demote_pass(batched, 64)) \
            .startswith("DeviceFailure")
        self.declined(batched, "victims")

    def test_far_row(self):
        batched, looped = twins((80, 100), 240)
        for pool in (batched, looped):
            pool.access(FAR)
        compare(batched, looped, *demote_pass(batched, 64))
        self.declined(batched, "far")


def peak_reads(monkeypatch):
    """Record the starting count of every running peak the commit
    reads (``_run_peak``); the tiers it skips take the shortcut."""
    starts = []
    read = buffer._run_peak

    def spy(count, into, out):
        starts.append(count)
        return read(count, into, out)

    monkeypatch.setattr(buffer, "_run_peak", spy)
    return starts


class TestLeanCommit:
    """The commit reads a tier's running peak only when the run could
    overflow the tier or raise its ``resident_peak``; each LRU tier
    takes one stamp write per direction. Both held to the loop's peaks
    and recency order (``state``)."""

    @pytest.mark.parametrize("cxl_at_peak", [False, True])
    def test_swap_at_a_full_fast_tier(self, monkeypatch, cxl_at_peak):
        """A rebalance swap with DRAM full. Filled from CXL, DRAM's
        running count is the only one read: CXL sits 64 below the peak
        its preload left, and that peak stands. Filled by point
        faults, CXL sits at its peak, so the swap's first demotion
        raises it, and CXL's running count is read too."""
        pools = []
        for _ in range(2):
            engine = ScaleUpEngine.build(
                dram_pages=64, cxl_pages=400,
                placement=DbCostPolicy(rebalance_interval=10**9))
            engine.preload(np.arange(300), nbytes=PAGE_SIZE, is_scan=True)
            if cxl_at_peak:
                engine.preload(np.arange(300, 364), nbytes=PAGE_SIZE)
            else:
                engine.pool.migrate_batch(np.arange(64), np.zeros(64, int))
            pools.append(engine.pool)
        batched, looped = pools
        cxl = 300 if cxl_at_peak else 236
        assert [batched.tier_residents(t) for t in (0, 1)] == [64, cxl]
        assert batched.stats.per_tier[1].resident_peak == 300
        swaps = np.empty(128, dtype=np.int64)
        swaps[0::2] = sorted(batched.resident_in(0))
        swaps[1::2] = np.arange(100, 164)
        starts = peak_reads(monkeypatch)
        compare(batched, looped, swaps, 1 - np.arange(128) % 2)
        assert starts == ([64, 300] if cxl_at_peak else [64])
        assert batched.stats.per_tier[1].resident_peak == \
            (301 if cxl_at_peak else 300)
        assert [batched.tier_residents(t) for t in (0, 1)] == [64, cxl]
        assert batched.tiers[0].policy.order()[-64:] == \
            list(range(100, 164))

    def test_three_tier_overflow_reads_the_overflowing_tier(self,
                                                            monkeypatch):
        """Departures only (tier 0) and arrivals into room under the
        peak (tier 1) take the shortcut; the tier the run overfills
        reads its running count and evicts."""
        batched, looped = twins((70, 40, 60), 190)
        for pool in (batched, looped):
            for page in sorted(pool.resident_in(1))[:8]:
                pool.migrate(page, 2)
        ids, _ = demote_pass(batched, 64)
        tos = np.where(np.arange(64) % 16 == 0, 1, 2)
        starts = peak_reads(monkeypatch)
        compare(batched, looped, ids, tos)
        assert starts == [60]
        assert batched.stats.per_tier[2].evictions > 0


def test_an_epoch_is_one_window():
    """An all-hit scan on a DbCostPolicy pool (a rebalance every 5,000
    accesses) through ``engine.run`` takes at most one window per
    epoch plus one per run, since neither a trigger nor a block's end
    shrinks the window's span. Charging it block by block, the way
    ``run`` did before it joined blocks, takes more, for the same
    pool."""
    pages = 3_000
    trace = list(scan_blocks(0, pages, repeats=40))

    def warm():
        engine = ScaleUpEngine.build(dram_pages=pages // 6,
                                     cxl_pages=pages * 3 // 2)
        engine.preload(np.arange(pages), nbytes=PAGE_SIZE, is_scan=True)
        return engine, engine.pool.lane.exact_windows

    engine, before = warm()
    report = engine.run(trace)
    windows = engine.pool.lane.exact_windows - before
    epochs = report.ops // engine.pool.placement.rebalance_interval
    runs = -(-report.ops // (RUN_OPS // pages * pages))
    assert report.misses == 0 and epochs == 24 and runs == 4
    assert windows <= epochs + runs
    blockwise, before = warm()
    for block in trace:
        blockwise.pool.access_block(block)
    assert blockwise.pool.lane.exact_windows - before > windows
    assert full_state(blockwise.pool) == full_state(engine.pool)


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_any_overfilling_run_equals_the_loop(seed):
    """Two- and three-tier pools, backed or not, clean and dirty
    victims, traced or not, a session clock or the pool's, demote-pass
    runs with a mixed destination, a departure, a far row or a stayer
    mixed in: the batch equals the loop on everything."""
    rng = random.Random(seed)
    capacities = rng.choice([(80, 100), (70, 30, 90), (66, 70)])
    pages = sum(capacities) + rng.choice([-20, 0, 40])
    batched, looped = twins(capacities, pages, rng.random() < 0.5,
                            backed=rng.random() < 0.85,
                            dirty_every=rng.choice([0, 1, 2, 5]))
    ids, tos = demote_pass(batched, rng.choice([64, 66]))
    last = len(capacities) - 1
    tos[:] = last
    if last == 2 and rng.random() < 0.5:
        tos[rng.sample(range(len(ids)), 5)] = 1
    twist = rng.choice(["none"] * 6 + ["leave", "far", "stay"])
    if twist == "far":
        for pool in (batched, looped):
            pool.access(FAR)
    if twist == "leave":
        ids = np.append(ids, max(batched.resident_in(last)))
        tos = np.append(tos, 0)
    elif twist == "stay":
        ids = np.append(ids, batched.tiers[last].policy.peek_batch(
            rng.randint(1, 3))[-1])
        tos = np.append(tos, last)
    if rng.random() < 0.5:
        for pool in (batched, looped):
            pool.session_begin(SimClock(7.5), contended=False)
    if rng.random() < 0.5:
        ids, tos = ids.tolist(), tos.tolist()
    compare(batched, looped, ids, tos)


def test_fault_storm_steps_only_its_promotions():
    """A fault_storm-shaped pool (cold, scanned past its capacity, then
    a YCSB-A tail): every demote pass lands in the full CXL tier as one
    column commit, so the per-page step moves only the promotions, and
    no run is declined."""
    engine = ScaleUpEngine.build(dram_pages=512, cxl_pages=1024,
                                 placement=OSPagingPolicy())
    engine.run(list(scan_blocks(0, 8_000, repeats=3)))
    engine.run(list(ycsb_blocks(YCSBConfig(
        mix="A", num_pages=8_000, num_ops=16_000, seed=5))))
    pool = engine.pool
    lane = pool.lane
    dram, cxl = pool.stats.per_tier
    assert lane.column_migrations == cxl.promotions_in > 0
    assert lane.step_migrations == dram.promotions_in
    assert lane.column_migrations + lane.step_migrations == \
        pool.stats.migrations
    assert cxl.evictions > 0 and pool.stats.writebacks > 0
    assert not any(lane.migrate_declines.values())


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
def test_promote_threshold_must_be_finite(bad):
    with pytest.raises(ConfigError, match="promote_min_heat"):
        OSPagingPolicy(promote_min_heat=bad)
    OSPagingPolicy(promote_min_heat=0.0)
