"""A pool keeps the heat its placement reads.

:class:`DbCostPolicy` ranks pages by exact heat, so it installs its
:class:`ExactTracker` as the pool's — the one it was given, else the
pool's, else a fresh one — and refuses a pool tracker it would not
read. :class:`OSPagingPolicy` feeds its own sampler and
:class:`StaticPolicy` reads no heat, so their pools keep no tracker;
nothing simulated reads the heat that is dropped, so a pool with an
explicit tracker and one without end in the same state.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    DbCostPolicy,
    OSPagingPolicy,
    ScaleUpEngine,
    StaticPolicy,
)
from repro.core.buffer import TieredBufferPool
from repro.core.temperature import ExactTracker, SampledTracker
from repro.errors import ConfigError
from repro.sim.context import SimContext
from repro.workloads import YCSBConfig, scan_blocks, ycsb_blocks
from tests.core.residency import frame_rows
from tests.core.test_sessions import (
    keep_heat,
    mixed_session_set,
    queue_state,
    report_digest,
)


def test_default_build_shares_one_exact_tracker():
    pool = ScaleUpEngine.build(dram_pages=8, cxl_pages=16).pool
    assert isinstance(pool.tracker, ExactTracker)
    assert pool.tracker is pool.placement.tracker


@pytest.mark.parametrize("placement", [
    lambda: StaticPolicy(lambda _p: 1), OSPagingPolicy])
def test_other_placements_keep_no_pool_tracker(placement):
    pool = ScaleUpEngine.build(dram_pages=8, cxl_pages=16,
                               placement=placement()).pool
    assert pool.tracker is None


def ycsb_b(pages, ops):
    return list(ycsb_blocks(YCSBConfig(mix="B", num_pages=pages,
                                       num_ops=ops, seed=5)))


def test_a_policy_tracker_is_the_one_the_pool_feeds():
    """A DbCostPolicy handed its tracker ranks on heat the pool feeds:
    it used to rank on a tracker nothing fed (heat 0.0 everywhere, so
    no rebalance moved a page) while the pool fed its own."""
    mine = ExactTracker()
    policy = DbCostPolicy(rebalance_interval=500, tracker=mine)
    engine = ScaleUpEngine.build(dram_pages=64, cxl_pages=1_000,
                                 placement=policy)
    report = engine.run(ycsb_b(800, 5_000))
    assert engine.pool.tracker is mine
    assert mine.heat_array(np.arange(800)).sum() > 0
    assert policy.rebalances == 10 and policy.moves > 0
    # It behaves as the policy that makes its own tracker.
    own = DbCostPolicy(rebalance_interval=500)
    twin = ScaleUpEngine.build(dram_pages=64, cxl_pages=1_000,
                               placement=own)
    assert repr(twin.run(ycsb_b(800, 5_000))) == repr(report)
    assert own.moves == policy.moves


def test_a_pool_tracker_is_shared_with_the_policy():
    mine = ExactTracker()
    tiers = ScaleUpEngine.build(dram_pages=8, cxl_pages=16).pool.tiers
    for policy in (DbCostPolicy(), DbCostPolicy(tracker=mine)):
        pool = TieredBufferPool(tiers=tiers, placement=policy,
                                tracker=mine, ctx=SimContext())
        assert pool.tracker is mine and policy.tracker is mine


@pytest.mark.parametrize("pool_tracker, policy_tracker", [
    (lambda: SampledTracker(sample_rate=0.5), lambda: None),
    (ExactTracker, ExactTracker),
    (lambda: None, lambda: SampledTracker(sample_rate=0.5)),
], ids=["sampled-pool", "two-exact", "sampled-policy"])
def test_dbcost_refuses_a_tracker_it_would_not_read(pool_tracker,
                                                    policy_tracker):
    """A pool tracker that is not the policy's exact one would be fed
    and never read; the pool used to build, and the policy quietly
    ranked on a fresh tracker that nothing fed."""
    tiers = ScaleUpEngine.build(dram_pages=8, cxl_pages=16).pool.tiers
    with pytest.raises(ConfigError, match="ExactTracker"):
        TieredBufferPool(tiers=tiers,
                         placement=DbCostPolicy(tracker=policy_tracker()),
                         tracker=pool_tracker(), ctx=SimContext())


# -- dropping the unread heat changes nothing ---------------------------------

def end_state(engine, digest):
    pool = engine.pool
    sampler = getattr(pool.placement, "tracker", None)
    return {
        "run": digest,
        "stats": repr(pool.stats),
        "frames": frame_rows(pool),
        "recency": [tier.policy.order() for tier in pool.tiers],
        "clock": (repr(pool.clock), repr(pool.clock.now)),
        "queues": queue_state(pool),
        "sampler": (None if sampler is None
                    else list(sampler._heat.items())),
        "lane": pool.lane.snapshot(),
    }


def built(heated, **build):
    """``ScaleUpEngine.build``'s engine, or with *heated* the same on
    a pool that keeps an explicit :class:`ExactTracker`."""
    engine = ScaleUpEngine.build(**build)
    return keep_heat(engine) if heated else engine


def contended_sessions(heated):
    engine = built(heated, dram_pages=1, cxl_pages=4_000,
                   placement=StaticPolicy(lambda _p: 1), with_storage=False)
    for page in range(3_992):
        engine.pool.access(page)
    report = engine.run_sessions(mixed_session_set())
    assert report.wait_ns > 0
    return engine, report_digest(report)


def cold_storm(heated):
    """A cold OS-paged pool: two scans over four times its capacity,
    then a YCSB-A tail over the same pages."""
    engine = built(heated, dram_pages=32, cxl_pages=256,
                   placement=OSPagingPolicy())
    pages = 4 * (32 + 256)
    trace = list(scan_blocks(0, pages, repeats=2))
    trace += list(ycsb_blocks(YCSBConfig(
        mix="A", num_pages=pages, num_ops=4 * pages, seed=41)))
    return engine, repr(engine.run(trace))


@pytest.mark.parametrize("run", [contended_sessions, cold_storm])
def test_a_pool_without_a_tracker_ends_in_the_same_state(run):
    bare, bare_digest = run(False)
    heated, heated_digest = run(True)
    assert bare.pool.tracker is None
    assert bare.pool.lane.declines["tracker"] == 0
    assert sum(heated.pool.tracker._heat.values()) > 0
    assert end_state(bare, bare_digest) == end_state(heated, heated_digest)
