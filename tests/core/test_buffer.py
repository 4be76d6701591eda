"""The tiered buffer pool: residency, faults, eviction, migration."""

import pytest

from repro import config
from repro.core.buffer import Tier, TieredBufferPool
from repro.core.placement import DbCostPolicy, StaticPolicy
from repro.core.temperature import ExactTracker
from repro.errors import BufferPoolError, PageFaultError
from repro.sim.interconnect import AccessPath
from repro.sim.memory import MemoryDevice
from repro.units import PAGE_SIZE


def make_tiers(dram=4, cxl=8):
    return [
        Tier(name="dram",
             path=AccessPath(device=MemoryDevice(config.local_ddr5())),
             capacity_pages=dram),
        Tier(name="cxl",
             path=AccessPath(device=MemoryDevice(config.cxl_expander_ddr5())),
             capacity_pages=cxl),
    ]


def make_pool(dram=4, cxl=8, backing=None, placement=None):
    return TieredBufferPool(
        tiers=make_tiers(dram, cxl), backing=backing,
        placement=placement or DbCostPolicy(rebalance_interval=10_000),
    )


class TestResidency:
    def test_fault_installs_page(self):
        pool = make_pool()
        pool.access(1)
        assert pool.resident_pages == 1
        assert pool.tier_of(1) == 0
        assert pool.stats.misses == 1

    def test_hit_after_fault(self):
        pool = make_pool()
        pool.access(1)
        pool.access(1)
        assert pool.stats.hits == 1
        assert pool.stats.per_tier[0].hits == 1

    def test_each_page_in_exactly_one_tier(self):
        pool = make_pool(dram=2, cxl=4)
        for page in range(6):
            pool.access(page)
        seen = set()
        for tier_index in range(len(pool.tiers)):
            residents = set(pool.resident_in(tier_index))
            assert not (residents & seen)
            seen |= residents
        assert pool.resident_pages == len(seen)

    def test_tier_capacity_respected(self):
        pool = make_pool(dram=2, cxl=4)
        for page in range(20):
            pool.access(page)
        assert pool.tier_residents(0) <= 2
        assert pool.tier_residents(1) <= 4

    def test_resident_counts_match_enumeration(self):
        pool = make_pool(dram=3, cxl=5)
        for page in range(12):
            pool.access(page)
        for tier_index in range(2):
            assert (pool.tier_residents(tier_index)
                    == len(list(pool.resident_in(tier_index))))


class TestTiming:
    def test_dram_hit_faster_than_cxl_hit(self):
        pool = make_pool(dram=2, cxl=8)
        placement = pool.placement
        pool.access(1)  # in dram
        t_dram = pool.access(1)
        # Force a page into the CXL tier.
        pool.access(2)
        pool.migrate(2, 1)
        t_cxl = pool.access(2)
        del placement
        assert t_cxl > t_dram

    def test_miss_slower_than_hit_with_backing(self, pagefile):
        pool = make_pool(backing=pagefile)
        t_miss = pool.access(1)
        t_hit = pool.access(1)
        assert t_miss > 50 * t_hit  # NVMe fault vs DRAM hit

    def test_clock_advances(self):
        pool = make_pool()
        before = pool.clock.now
        pool.access(1)
        assert pool.clock.now > before

    def test_scan_access_cheaper_than_random(self):
        pool = make_pool()
        pool.access(1)
        pool.access(2)
        t_random = pool.access(1, nbytes=PAGE_SIZE)
        t_scan = pool.access(2, nbytes=PAGE_SIZE, is_scan=True)
        assert t_scan < t_random


class TestPinning:
    def test_pinned_pages_never_evicted(self):
        pool = make_pool(dram=2, cxl=2,
                         placement=StaticPolicy(lambda _p: 0))
        pool.access(1)
        pool.pin(1)
        for page in range(2, 10):
            pool.access(page)
        assert pool.tier_of(1) == 0
        pool.unpin(1)

    def test_all_pinned_raises(self):
        pool = make_pool(dram=1, cxl=1,
                         placement=StaticPolicy(lambda _p: 0))
        pool.access(1)
        pool.pin(1)
        with pytest.raises(PageFaultError):
            pool.access(2)

    def test_unpin_unpinned_raises(self):
        pool = make_pool()
        pool.access(1)
        with pytest.raises(BufferPoolError):
            pool.unpin(1)

    def test_pin_nonresident_raises(self):
        with pytest.raises(BufferPoolError):
            make_pool().pin(1)

    def test_migrate_pinned_raises(self):
        pool = make_pool()
        pool.access(1)
        pool.pin(1)
        with pytest.raises(BufferPoolError):
            pool.migrate(1, 1)


class TestMigration:
    def test_migrate_moves_page(self):
        pool = make_pool()
        pool.access(1)
        pool.migrate(1, 1)
        assert pool.tier_of(1) == 1
        assert pool.stats.migrations == 1

    def test_migrate_same_tier_is_noop(self):
        pool = make_pool()
        pool.access(1)
        assert pool.migrate(1, 0) == 0.0
        assert pool.stats.migrations == 0

    def test_migrate_nonresident_raises(self):
        with pytest.raises(BufferPoolError):
            make_pool().migrate(1, 1)

    def test_migrate_invalid_tier_raises(self):
        pool = make_pool()
        pool.access(1)
        with pytest.raises(BufferPoolError):
            pool.migrate(1, 5)

    def test_migration_charges_time(self):
        pool = make_pool()
        pool.access(1)
        elapsed = pool.migrate(1, 1)
        assert elapsed > 0
        assert pool.stats.migration_time_ns == pytest.approx(elapsed)


class TestDirtyAndWriteback:
    def test_write_marks_dirty(self):
        pool = make_pool()
        pool.access(1, write=True)
        assert pool.frame_of(1).dirty

    def test_eviction_of_dirty_counts_writeback(self, pagefile):
        pool = make_pool(dram=1, cxl=1, backing=pagefile,
                         placement=StaticPolicy(lambda _p: 0))
        pool.access(0, write=True)
        pool.access(1)  # evicts dirty page 0 straight to storage
        assert pool.stats.writebacks == 1

    def test_flush_all(self, pagefile):
        pool = make_pool(backing=pagefile)
        pool.access(0, write=True)
        pool.access(1, write=True)
        elapsed = pool.flush_all()
        assert elapsed > 0
        assert pool.stats.writebacks == 2
        assert not pool.frame_of(0).dirty


class TestAdoption:
    def test_adopt_resident(self, pagefile):
        pool = make_pool(backing=pagefile)
        page = pagefile.peek(3)
        pool.adopt_resident(page, tier_index=1)
        assert pool.tier_of(3) == 1
        # Access is a hit, not a fault.
        pool.access(3)
        assert pool.stats.misses == 0

    def test_adopt_duplicate_raises(self, pagefile):
        pool = make_pool(backing=pagefile)
        pool.adopt_resident(pagefile.peek(3), 1)
        with pytest.raises(BufferPoolError):
            pool.adopt_resident(pagefile.peek(3), 1)

    def test_adopt_to_full_tier_raises(self, pagefile):
        pool = make_pool(dram=4, cxl=2, backing=pagefile)
        pool.adopt_resident(pagefile.peek(0), 1)
        pool.adopt_resident(pagefile.peek(1), 1)
        with pytest.raises(BufferPoolError):
            pool.adopt_resident(pagefile.peek(2), 1)


class TestConstruction:
    def test_empty_tiers_rejected(self):
        with pytest.raises(BufferPoolError):
            TieredBufferPool(tiers=[])

    def test_zero_capacity_tier_rejected(self):
        with pytest.raises(BufferPoolError):
            Tier(name="bad",
                 path=AccessPath(device=MemoryDevice(config.local_ddr5())),
                 capacity_pages=0)

    def test_path_without_timing_table_rejected(self):
        """Every tier's hit latencies come from its path's timing
        table, so a path that is not an AccessPath fails the build."""
        class OpaquePath:
            def __init__(self, inner):
                self.device = inner.device

        path = AccessPath(device=MemoryDevice(config.local_ddr5()))
        with pytest.raises(BufferPoolError, match="AccessPath"):
            TieredBufferPool(tiers=[Tier(name="opaque",
                                         path=OpaquePath(path),
                                         capacity_pages=4)])

    @pytest.mark.parametrize("hook", ["fast_headroom", "note_accesses",
                                      "choose_admit_tiers", "record_batch"])
    def test_protocol_hook_is_required(self, hook):
        """The array lanes call the batch hooks that PlacementPolicy
        and TemperatureTracker declare without a guard, so a
        duck-typed placement or tracker lacking one fails the build
        (it used to build and send every run down a scalar detour)."""
        class Hookless:
            def __init__(self, inner):
                self._inner = inner

            def __getattr__(self, name):
                if name == hook:
                    raise AttributeError(name)
                return getattr(self._inner, name)

        placement = StaticPolicy(lambda _p: 1)
        tracker = ExactTracker()
        if hook == "record_batch":
            tracker = Hookless(tracker)
        else:
            placement = Hookless(placement)
        with pytest.raises(BufferPoolError, match=hook):
            TieredBufferPool(tiers=make_tiers(), placement=placement,
                             tracker=tracker)

    def test_tier_from_device_path(self):
        path = AccessPath(device=MemoryDevice(
            config.local_ddr5(capacity_bytes=1024 * PAGE_SIZE)))
        tier = Tier.from_device_path("t", path, page_size=PAGE_SIZE)
        assert tier.capacity_pages == 1024

    def test_drop_all(self):
        pool = make_pool()
        for page in range(5):
            pool.access(page)
        pool.drop_all()
        assert pool.resident_pages == 0
        assert pool.tier_residents(0) == 0
