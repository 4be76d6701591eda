"""Placement policies: OS paging vs DB cost-based vs static HTAP."""

import random

import numpy as np
import pytest

from repro import config
from repro.core.buffer import Tier, TieredBufferPool
from repro.core.placement import DbCostPolicy, OSPagingPolicy, StaticPolicy
from repro.core.temperature import ExactTracker, SampledTracker
from repro.errors import BufferPoolError, ConfigError
from repro.sim.interconnect import AccessPath
from repro.sim.memory import MemoryDevice
from tests.core.test_access_batch import _pool_state


def make_pool(placement, dram=8, cxl=32):
    tiers = [
        Tier(name="dram",
             path=AccessPath(device=MemoryDevice(config.local_ddr5())),
             capacity_pages=dram),
        Tier(name="cxl",
             path=AccessPath(device=MemoryDevice(config.cxl_expander_ddr5())),
             capacity_pages=cxl),
    ]
    return TieredBufferPool(tiers=tiers, placement=placement)


class TestStaticPolicy:
    def test_classifier_places(self):
        pool = make_pool(StaticPolicy(lambda p: 0 if p < 100 else 1))
        pool.access(5)
        pool.access(200)
        assert pool.tier_of(5) == 0
        assert pool.tier_of(200) == 1

    def test_no_migration_ever(self):
        pool = make_pool(StaticPolicy(lambda p: 1))
        for _ in range(100):
            pool.access(1)  # heavily accessed but pinned to tier 1
        assert pool.tier_of(1) == 1
        assert pool.stats.migrations == 0

    def test_isolation_under_pressure(self):
        """OLAP pages (tier 1) must never push OLTP pages out of
        tier 0 — the Sec 3.1 HTAP property."""
        pool = make_pool(StaticPolicy(lambda p: 0 if p < 4 else 1),
                         dram=4, cxl=8)
        for page in range(4):
            pool.access(page)
        for page in range(100, 200):  # OLAP flood
            pool.access(page)
        for page in range(4):
            assert pool.tier_of(page) == 0

    def test_classifier_clamped(self):
        pool = make_pool(StaticPolicy(lambda _p: 99))
        pool.access(1)
        assert pool.tier_of(1) == 1  # clamped to last tier

    def test_unattached_policy_raises(self):
        policy = StaticPolicy(lambda _p: 0)
        with pytest.raises(BufferPoolError):
            policy.choose_admit_tier(1)


class TestOSPagingPolicy:
    def test_admits_to_fast_tier_first(self):
        pool = make_pool(OSPagingPolicy(), dram=4)
        pool.access(1)
        assert pool.tier_of(1) == 0

    def test_overflow_admits_to_slow_tier(self):
        pool = make_pool(OSPagingPolicy(check_interval=10**9), dram=2)
        for page in range(4):
            pool.access(page)
        assert pool.tier_of(3) == 1

    def test_demote_pass_keeps_headroom(self):
        policy = OSPagingPolicy(check_interval=50, sample_rate=1.0,
                                high_watermark=0.9, low_watermark=0.5)
        pool = make_pool(policy, dram=10, cxl=40)
        for page in range(10):
            pool.access(page)
        # Fill tier 0 and keep accessing to trigger the check pass.
        for _ in range(10):
            for page in range(10):
                pool.access(page)
        assert pool.tier_residents(0) <= 9

    def test_promote_pass_pulls_hot_pages_up(self):
        policy = OSPagingPolicy(check_interval=100, sample_rate=1.0,
                                promote_min_heat=2.0)
        pool = make_pool(policy, dram=8, cxl=32)
        # Overflow tier 0, then hammer a page stuck in tier 1.
        for page in range(10):
            pool.access(page)
        hot = next(iter(pool.resident_in(1)))
        for _ in range(300):
            pool.access(hot)
        assert pool.tier_of(hot) == 0

    def test_invalid_watermarks(self):
        with pytest.raises(BufferPoolError):
            OSPagingPolicy(high_watermark=0.5, low_watermark=0.9)

    @pytest.mark.parametrize("kwargs", [
        {"check_interval": 0}, {"check_interval": -5},
        {"max_moves_per_check": -1},
    ])
    def test_invalid_cadence_rejected_at_construction(self, kwargs):
        with pytest.raises(ConfigError):
            OSPagingPolicy(**kwargs)

    def test_zero_move_budget_is_valid(self):
        pool = make_pool(OSPagingPolicy(check_interval=5,
                                        max_moves_per_check=0), dram=2)
        for page in range(12):
            pool.access(page)
        assert pool.stats.migrations == 0


class FullRankOSPaging(OSPagingPolicy):
    """The demote / promote passes as they were before they stopped
    ranking what they never read — the reference for the test below."""

    def _demote_pass(self) -> None:
        pool = self.pool
        if len(pool.tiers) < 2:
            return
        fast = pool.tiers[0]
        high = int(fast.capacity_pages * self.high_watermark)
        low = int(fast.capacity_pages * self.low_watermark)
        if pool.tier_residents(0) < high:
            return
        budget = self.max_moves_per_check
        residents = sorted(pool.resident_in(0), key=self.tracker.heat)
        for page_id in residents:
            if budget == 0 or pool.tier_residents(0) <= low:
                break
            frame = pool.frame_of(page_id)
            if frame is None or frame.pinned:
                continue
            pool.migrate(page_id, 1)
            budget -= 1

    def _promote_pass(self) -> None:
        pool = self.pool
        fast = pool.tiers[0]
        budget = self.max_moves_per_check
        limit = int(fast.capacity_pages * self.high_watermark)
        for page_id in self.tracker.hottest(4 * budget):
            if budget == 0:
                break
            if pool.tier_residents(0) >= limit:
                break
            if self.tracker.heat(page_id) < self.promote_min_heat:
                break
            frame = pool.frame_of(page_id)
            if frame is None or frame.tier_index == 0 or frame.pinned:
                continue
            pool.migrate(page_id, 0)
            budget -= 1


@pytest.mark.parametrize("kwargs", [
    dict(),
    dict(max_moves_per_check=3),
    dict(max_moves_per_check=0),
    dict(high_watermark=1.0, low_watermark=1.0),
    dict(high_watermark=0.5, low_watermark=0.25, promote_min_heat=1.0),
    dict(sample_rate=0.02, promote_min_heat=3.0),
])
@pytest.mark.parametrize("pins", [(), (3, 17, 40)])
def test_ospaging_passes_match_the_full_ranking(kwargs, pins):
    """Same migrations, in the same order, as ranking every resident
    and every sampled page: pool state equal after every access."""
    kwargs = {"sample_rate": 0.5, "check_interval": 40, **kwargs}
    new = make_pool(OSPagingPolicy(**kwargs), dram=16, cxl=24)
    old = make_pool(FullRankOSPaging(**kwargs), dram=16, cxl=24)
    rng = random.Random(7)
    trace = [min(int(rng.paretovariate(0.9)), 59) for _ in range(1500)]
    for step, page in enumerate(trace):
        for pool in (new, old):
            pool.access(page, write=step % 5 == 0)
            if step == 100:
                for pinned in pins:
                    if pool.frame_of(pinned):
                        pool.pin(pinned)
        if step % 40 == 39:
            assert _pool_state(new) == _pool_state(old), step
    assert new.stats.migrations == old.stats.migrations
    if (kwargs.get("max_moves_per_check") != 0
            and kwargs.get("high_watermark") != 1.0):
        assert new.stats.migrations > 0


class TestDbCostPolicy:
    def test_scans_admitted_to_slow_tier(self):
        pool = make_pool(DbCostPolicy())
        pool.access(1, is_scan=True)
        assert pool.tier_of(1) == 1

    def test_point_accesses_admitted_fast(self):
        pool = make_pool(DbCostPolicy())
        pool.access(1)
        assert pool.tier_of(1) == 0

    def test_rebalance_promotes_hot_slow_pages(self):
        policy = DbCostPolicy(rebalance_interval=10**9)
        pool = make_pool(policy, dram=4, cxl=16)
        # Fill DRAM with soon-cold pages.
        for page in range(4):
            pool.access(page)
        # Hot page lands in CXL (scan admit), then gets hot.
        pool.access(100, is_scan=True)
        for _ in range(50):
            pool.access(100)
        moves = policy.rebalance()
        assert moves > 0
        assert pool.tier_of(100) == 0

    def test_rebalance_respects_pins(self):
        policy = DbCostPolicy(rebalance_interval=10**9)
        pool = make_pool(policy, dram=1, cxl=8)
        pool.access(1)
        pool.pin(1)
        pool.access(2, is_scan=True)
        for _ in range(50):
            pool.access(2)
        policy.rebalance()
        assert pool.tier_of(1) == 0  # pinned page stayed
        pool.unpin(1)

    @pytest.mark.parametrize("kwargs", [
        {"rebalance_interval": 0}, {"rebalance_interval": -1},
        {"max_moves_per_rebalance": -1},
    ])
    def test_invalid_cadence_rejected_at_construction(self, kwargs):
        """Used to surface as a ZeroDivisionError on the first
        ``% interval`` deep inside ``access``."""
        with pytest.raises(ConfigError):
            DbCostPolicy(**kwargs)

    def test_zero_move_budget_never_migrates(self):
        policy = DbCostPolicy(rebalance_interval=3,
                              max_moves_per_rebalance=0)
        pool = make_pool(policy, dram=4, cxl=16)
        pool.access(100, is_scan=True)
        for _ in range(20):
            pool.access(100)
        assert policy.rebalance() == 0
        assert pool.tier_of(100) == 1
        assert policy.snapshot()["rebalances"] == 8

    def test_single_tier_rebalance_is_noop(self):
        tiers = [Tier(
            name="dram",
            path=AccessPath(device=MemoryDevice(config.local_ddr5())),
            capacity_pages=8,
        )]
        policy = DbCostPolicy()
        pool = TieredBufferPool(tiers=tiers, placement=policy)
        pool.access(1)
        assert policy.rebalance() == 0

    def test_beats_os_policy_on_skewed_reads(self):
        """The headline Sec 3.1 claim, in miniature."""
        from repro.workloads import YCSBConfig, ycsb_trace
        cfg = YCSBConfig(mix="C", num_pages=400, num_ops=6_000,
                         theta=0.99, think_ns=0)

        def run(policy):
            pool = make_pool(policy, dram=40, cxl=400)
            from repro.core.engine import ScaleUpEngine
            engine = ScaleUpEngine(pool)
            return engine.run(ycsb_trace(cfg))

        db = run(DbCostPolicy(rebalance_interval=500))
        os_ = run(OSPagingPolicy(check_interval=500))
        assert db.tier_hit_rates[0] >= os_.tier_hit_rates[0]


@pytest.mark.parametrize("cls, name, value", [
    (ExactTracker, "epoch_accesses", 50.0),
    (ExactTracker, "epoch_accesses", True),
    (SampledTracker, "epoch_accesses", 0),
    (SampledTracker, "epoch_accesses", -5),
    (SampledTracker, "epoch_accesses", 2.0),
    (DbCostPolicy, "rebalance_interval", 2500.5),
    (DbCostPolicy, "rebalance_interval", float("nan")),
    (DbCostPolicy, "max_moves_per_rebalance", 2.5),
    (DbCostPolicy, "max_moves_per_rebalance", False),
    (OSPagingPolicy, "check_interval", 100.5),
    (OSPagingPolicy, "max_moves_per_check", 1.5),
], ids=lambda arg: getattr(arg, "__name__", str(arg)))
def test_counts_must_be_integers(cls, name, value):
    """A non-integer count (a whole float or a bool too) or an
    out-of-range one is refused where it is given, not as a TypeError
    from a slice or a partition deep in the buffer pool — or, for the
    sampler's epoch, not at all."""
    with pytest.raises(ConfigError, match=f"{name} must be an integer"):
        cls(**{name: value})


def test_numpy_integer_counts_are_counts():
    policy = DbCostPolicy(rebalance_interval=np.int64(16),
                          max_moves_per_rebalance=np.int32(4),
                          tracker=ExactTracker(epoch_accesses=np.int64(9)))
    pool = make_pool(policy, dram=4, cxl=16)
    for page in range(40):
        pool.access(page % 20)
    assert policy.rebalances == 40 // 16
