"""Property-based tests: replacement policies and the buffer pool."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import config
from repro.core.buffer import Tier, TieredBufferPool
from repro.core.placement import DbCostPolicy, OSPagingPolicy, StaticPolicy
from repro.core.replacement import POLICIES, make_policy
from repro.sim.interconnect import AccessPath
from repro.sim.memory import MemoryDevice

# An operation stream over a small key universe.
ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["insert", "access", "remove", "victim"]),
        st.integers(min_value=0, max_value=15),
    ),
    max_size=200,
)


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@given(ops=ops_strategy)
@settings(max_examples=60, deadline=None)
def test_policy_state_machine_invariants(policy_name, ops):
    """Under any operation stream: tracked set matches a reference
    set, victims are always tracked members, and length agrees."""
    policy = make_policy(policy_name)
    reference: set[int] = set()
    for op, key in ops:
        if op == "insert":
            if key in reference:
                continue
            policy.record_insert(key)
            reference.add(key)
        elif op == "access":
            if key not in reference:
                continue
            policy.record_access(key)
        elif op == "remove":
            policy.remove(key)
            reference.discard(key)
        else:  # victim
            victim = policy.victim()
            if reference:
                assert victim in reference
            else:
                assert victim is None
    assert len(policy) == len(reference)


def _make_pool(placement, dram, cxl):
    tiers = [
        Tier(name="dram",
             path=AccessPath(device=MemoryDevice(config.local_ddr5())),
             capacity_pages=dram),
        Tier(name="cxl",
             path=AccessPath(device=MemoryDevice(config.cxl_expander_ddr5())),
             capacity_pages=cxl),
    ]
    return TieredBufferPool(tiers=tiers, placement=placement)


pool_trace = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=63),   # page
        st.booleans(),                             # write
        st.booleans(),                             # is_scan
    ),
    max_size=300,
)


@pytest.mark.parametrize("placement_factory", [
    lambda: DbCostPolicy(rebalance_interval=37),
    lambda: OSPagingPolicy(check_interval=23, sample_rate=1.0),
    lambda: StaticPolicy(lambda p: p % 2),
], ids=["db-cost", "os-paging", "static"])
@given(trace=pool_trace,
       dram=st.integers(min_value=1, max_value=8),
       cxl=st.integers(min_value=1, max_value=16))
@settings(max_examples=40, deadline=None)
def test_pool_invariants_under_any_trace(placement_factory, trace,
                                         dram, cxl):
    """Capacities never exceeded, residency unique, counts consistent,
    clock monotone, demand latency always positive."""
    pool = _make_pool(placement_factory(), dram, cxl)
    last_clock = pool.clock.now
    for page, write, is_scan in trace:
        latency = pool.access(page, write=write, is_scan=is_scan)
        assert latency > 0
        assert pool.clock.now >= last_clock
        last_clock = pool.clock.now
        for tier_index, tier in enumerate(pool.tiers):
            residents = list(pool.resident_in(tier_index))
            assert len(residents) == pool.tier_residents(tier_index)
            assert len(residents) <= tier.capacity_pages
        all_pages = [
            p for i in range(len(pool.tiers))
            for p in pool.resident_in(i)
        ]
        assert len(all_pages) == len(set(all_pages)) == pool.resident_pages
    assert pool.stats.accesses == len(trace)
    assert pool.stats.misses <= pool.stats.accesses


@given(trace=pool_trace)
@settings(max_examples=30, deadline=None)
def test_pool_total_time_decomposes(trace):
    pool = _make_pool(DbCostPolicy(rebalance_interval=50), 4, 8)
    for page, write, is_scan in trace:
        pool.access(page, write=write, is_scan=is_scan)
    stats = pool.stats
    assert pool.clock.now == pytest.approx(
        stats.demand_time_ns + stats.migration_time_ns, rel=1e-9
    )
