"""``DbCostPolicy.rebalance`` selects instead of sorting, and the pool
migrates in batches: both are held **bit-identical** to the reference
in :mod:`tests.core.rebalance_oracle` — the full stable sort and one
scalar ``migrate`` per page — on frames, residency mirrors, replacement
order, every stat and clock float, and the emitted trace records.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import config
from repro.core.buffer import _RES_MAX_PIDS, Tier, TieredBufferPool
from repro.core.placement import DbCostPolicy, _first_set, heat_order_prefix
from repro.errors import BufferPoolError, ReproError
from repro.sim.clock import SimClock
from repro.sim.context import SimContext
from repro.sim.interconnect import AccessPath
from repro.sim.memory import MemoryDevice
from repro.sim.trace import MemoryTraceSink
from repro.workloads import scan_blocks
from tests.core.rebalance_oracle import OracleDbCostPolicy, migrate_loop
from tests.core.test_access_batch import _pool_state

FAR = _RES_MAX_PIDS + 11


def make_pool(placement, capacities=(8, 32), traced=True):
    """DRAM over one CXL tier per further capacity, no backing file
    (evicted pages become anonymous), a memory trace sink."""
    specs = [config.local_ddr5()] + \
        [config.cxl_expander_ddr5()] * (len(capacities) - 1)
    tiers = [
        Tier(name=f"t{i}", path=AccessPath(device=MemoryDevice(spec)),
             capacity_pages=cap)
        for i, (spec, cap) in enumerate(zip(specs, capacities))
    ]
    ctx = SimContext(trace=MemoryTraceSink()) if traced else None
    return TieredBufferPool(tiers=tiers, placement=placement, ctx=ctx)


def full_state(pool, session_clock=None):
    """`_pool_state` plus the insertion-order index and the trace."""
    pool.check_invariants()
    n = pool._ord_len
    state = _pool_state(pool)
    state["clock"] = repr(pool.clock.now)
    state["session_clock"] = session_clock and repr(session_clock.now)
    state["res_tier"] = pool._res_tier.tolist()
    state["ord"] = (pool._ord_ids[:n].tolist(), pool._ord_tier[:n].tolist(),
                    pool._ord_valid[:n].tolist())
    sink = pool.ctx.trace
    if sink.enabled:
        state["spans"] = [(s.name, s.cat, repr(s.start_ns), repr(s.end_ns),
                           s.args) for s in sink.spans]
        state["instants"] = list(sink.instants)
    return state


# -- the top-k helper ---------------------------------------------------------

def sorted_prefix(ids, heats, k, reverse):
    heat = dict(zip(ids, heats))
    picked = sorted(ids, key=heat.__getitem__, reverse=reverse)[:max(k, 0)]
    return picked, [heat[p] for p in picked]


@settings(max_examples=200)
@given(
    heats=st.lists(st.sampled_from([0.0, 0.1, 0.2, 0.5, 1.0, 3.0, 1e-7]),
                   max_size=90),
    k=st.integers(min_value=-1, max_value=100),
    reverse=st.booleans(),
    seed=st.integers(0, 10),
)
def test_heat_order_prefix_matches_stable_sort(heats, k, reverse, seed):
    ids = np.random.default_rng(seed).permutation(len(heats)) + 7
    ids = ids.astype(np.int64)
    got_ids, got_heats = heat_order_prefix(ids, np.array(heats, dtype=float),
                                           k, reverse=reverse)
    want_ids, want_heats = sorted_prefix(ids.tolist(), heats, k, reverse)
    assert got_ids.tolist() == want_ids
    assert got_heats.tolist() == want_heats
    assert got_ids.dtype == ids.dtype


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("k", [0, 1, 5, 6, 7, 1000])
def test_heat_order_prefix_edges(k, reverse):
    """k = 0, k = n, k > n, and every heat equal (pure scan): ties
    come back in input order whichever way the sort runs."""
    ids = np.array([9, 3, 7, 1, 8, 2], dtype=np.int64)
    equal = np.full(6, 0.1)
    assert heat_order_prefix(ids, equal, k, reverse)[0].tolist() == \
        ids.tolist()[:k]
    ramp = np.array([3.0, 1.0, 2.0, 1.0, 3.0, 0.0])
    assert heat_order_prefix(ids, ramp, k, reverse)[0].tolist() == \
        sorted_prefix(ids.tolist(), ramp.tolist(), k, reverse)[0]
    empty = np.empty(0, dtype=np.int64)
    assert heat_order_prefix(empty, np.empty(0), k, reverse)[0].tolist() == []


@settings(max_examples=100)
@given(n=st.integers(0, 30_000), hits=st.lists(st.integers(0, 29_999),
                                               max_size=200),
       k=st.integers(0, 150))
def test_first_set_is_the_head_of_flatnonzero(n, hits, k):
    """The widening chunks (1,024 entries, then four times as many
    each time) find what one full ``flatnonzero`` finds, wherever the
    set entries sit."""
    mask = np.zeros(n, dtype=bool)
    mask[[h for h in hits if h < n]] = True
    assert _first_set(mask, k).tolist() == np.flatnonzero(mask)[:k].tolist()


# -- migrate_batch ------------------------------------------------------------

def twin_pools(capacities=(8, 12), pages=18, traced=True):
    """Two identical pools, pages 0..pages-1 faulted in by point
    accesses (fast tier first, overflow to the slow one)."""
    pools = [make_pool(DbCostPolicy(rebalance_interval=10**9), capacities,
                       traced) for _ in range(2)]
    for pool in pools:
        for page in range(pages):
            pool.access(page)
    return pools


def seed_edges(pool):
    """Move one page along every tier edge and back, as a pool that has
    migrated before has: each edge's device times are then memoised,
    which the column commit requires."""
    for a in range(len(pool.tiers)):
        for b in range(len(pool.tiers)):
            if a != b and pool.tier_residents(a):
                page = pool.resident_in(a)[0]
                pool.migrate(page, b)
                if pool.tier_of(page) == b:
                    pool.migrate(page, a)


def run_both(batched, looped, page_ids, to_tiers):
    """Batch on one pool, scalar loop on its twin: same return value
    or same error, then the same state."""
    outcomes = []
    for run in (batched.migrate_batch,
                lambda ids, tiers: migrate_loop(looped, ids, tiers)):
        try:
            outcomes.append(repr(run(page_ids, to_tiers)))
        except ReproError as exc:
            outcomes.append(f"{type(exc).__name__}: {exc}")
    assert outcomes[0] == outcomes[1]
    assert full_state(batched) == full_state(looped)
    return outcomes[0]


class TestMigrateBatch:
    def test_equals_scalar_loop(self):
        batched, looped = twin_pools()
        # Demotions, promotions, a same-tier no-op and a page moved
        # twice; tier 0 is full, so promoting into it must make room.
        ids = [0, 9, 1, 10, 3, 3, 9, 4]
        tiers = [1, 0, 1, 0, 0, 1, 1, 1]
        total = run_both(batched, looped, ids, tiers)
        assert float(total) > 0.0
        assert batched.stats.migrations == 7

    def test_make_room_mid_batch(self):
        # Slow tier full: the first demotion evicts its LRU page.
        batched, looped = twin_pools(capacities=(4, 6), pages=10)
        before = batched.resident_pages
        run_both(batched, looped, [0, 5, 1, 6], [1, 0, 1, 0])
        assert batched.resident_pages == before - 1
        assert any(s.name == "pool.promotion"
                   for s in batched.ctx.trace.spans)

    def test_session_clock_takes_the_time(self):
        batched, looped = twin_pools()
        clocks = [SimClock(5.0), SimClock(5.0)]
        for pool, clock in zip((batched, looped), clocks):
            pool.session_begin(clock, contended=False)
        run_both(batched, looped, [0, 9, 1], [1, 0, 1])
        assert repr(clocks[0].now) == repr(clocks[1].now)
        assert clocks[0].now > 5.0
        assert batched.clock.now == looped.clock.now

    @pytest.mark.parametrize("bad, message", [
        ("missing", "cannot migrate non-resident 999"),
        ("tier", "invalid tier 7"),
    ])
    def test_error_mid_batch_keeps_scalar_partial_state(self, bad, message):
        batched, looped = twin_pools()
        ids, tiers = [0, 9, 2, 1], [1, 0, 1, 1]
        if bad == "missing":
            ids[2] = 999
        else:
            tiers[2] = 7
        outcome = run_both(batched, looped, ids, tiers)
        assert outcome == f"BufferPoolError: {message}"
        assert batched.tier_of(0) == 1 and batched.tier_of(9) == 0
        assert batched.tier_of(1) == 0  # never reached

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_any_batch_equals_scalar_loop(self, seed):
        """Batches long enough for the column commit and shorter, on 2-
        and 3-tier pools: swap-shaped pairs, demotions, mixed
        directions, a repeated page, a non-resident / invalid-tier
        entry mid-batch, a destination that fills
        mid-batch, side-table (far) pages, device times memoised or
        not, traced or not, on a session clock or the pool's. The
        return value or error text and the whole state — spans
        included — must be the scalar loop's. (The choices come from a
        seeded stream so that each case turns up in a fair share of
        the examples.)"""
        rng = random.Random(seed)
        capacities = rng.choice([(80, 150), (50, 100, 60)])
        pages = rng.choice([120, 170, sum(capacities) + 10])
        pools = twin_pools(capacities, pages, traced=rng.random() < 0.5)
        far = rng.choice([0, 0, 0, 2])
        seeded = rng.random() < 0.75
        for pool in pools:
            for i in range(far):
                pool.access(FAR + i)
            if seeded:
                seed_edges(pool)
        residents = [sorted(pools[0].resident_in(t))
                     for t in range(len(capacities))]
        fast, slow = residents[0], sum(residents[1:], [])
        n = rng.choice([3, 64, 90, 120])
        shape = rng.choice(["swaps", "swaps", "down", "mixed"])
        if shape == "swaps" and fast and slow:
            # Rebalance-shaped: a fast page down, its slow partner up.
            pairs = max(1, min(n // 2, len(fast), len(slow)))
            partners = rng.sample(slow, pairs)
            ids = [p for pair in zip(fast[:pairs], partners) for p in pair]
            to_tiers = [1, 0] * pairs
        else:
            pool_ids = fast if shape == "down" and fast else sum(residents, [])
            ids = rng.sample(pool_ids, min(n, len(pool_ids)))
            low = 1 if shape == "down" else 0
            to_tiers = [rng.randint(low, len(capacities) - 1) for _ in ids]
        where = rng.randrange(len(ids))
        bad = rng.choice(["none"] * 8 + ["repeat", "missing", "tier"])
        if bad == "repeat":
            ids.insert(where, ids[0])
            to_tiers.insert(where, rng.randrange(len(capacities)))
        elif bad == "missing":
            ids[where] = 999_999
        elif bad == "tier":
            to_tiers[where] = len(capacities) + 2
        if rng.random() < 0.5:
            for pool in pools:
                pool.session_begin(SimClock(5.0), contended=False)
        batched, looped = pools
        if rng.random() < 0.5:
            ids, to_tiers = np.array(ids, dtype=np.int64), np.array(to_tiers)
        run_both(batched, looped, ids, to_tiers)

    def test_column_route_commits_a_swap_batch(self):
        batched, looped = twin_pools((48, 90), 120)
        seed_edges(batched)
        seed_edges(looped)
        stepped = batched.lane.step_migrations
        fast = sorted(batched.resident_in(0))[:40]
        slow = sorted(batched.resident_in(1))[:40]
        ids = [p for pair in zip(fast, slow) for p in pair]
        run_both(batched, looped, np.array(ids), np.array([1, 0] * 40))
        assert batched.lane.column_migrations == 80
        assert batched.lane.step_migrations == stepped

    def test_length_mismatch_rejected(self):
        pool, _ = twin_pools()
        with pytest.raises(BufferPoolError):
            pool.migrate_batch([0, 1], [1])
        assert pool.stats.migrations == 0

    def test_migrate_is_the_one_page_batch(self):
        batched, looped = twin_pools()
        assert batched.migrate(1, 0) == 0.0
        assert batched.migrate(1, 1) == migrate_loop(looped, [1], [1])
        migrate_loop(looped, [1], [0])
        assert batched.migrate_batch([], []) == 0.0
        batched.migrate(1, 0)
        assert full_state(batched) == full_state(looped)


# -- rebalance vs the full-sort oracle ----------------------------------------

CAPACITIES = [(4, 8), (8, 24), (6, 5, 9), (40, 110), (70, 160), (30, 20, 70)]


@st.composite
def scenarios(draw):
    capacities = draw(st.sampled_from(CAPACITIES))
    # A universe past total capacity keeps the slow tiers full, so
    # swaps must make room; one inside it leaves tiers part-empty.
    universe = int(sum(capacities) * draw(st.sampled_from([0.5, 0.9, 1.4])))
    page = st.integers(0, max(universe - 1, 1))
    rank = st.integers(0, 200)
    ops = draw(st.lists(st.one_of(
        st.tuples(st.just("scan"), page, st.integers(1, 400),
                  st.integers(1, 4)),
        st.tuples(st.just("points"), st.lists(page, min_size=1, max_size=60),
                  st.booleans()),
        # State-relative: heat up / touch residents of one tier picked
        # by position, so hot-slow and cold-fast pages actually arise.
        st.tuples(st.just("hammer"), st.booleans(), rank,
                  st.integers(1, 30)),
        st.tuples(st.just("touch"), st.booleans(),
                  st.lists(rank, min_size=1, max_size=40)),
        st.tuples(st.just("session"), st.booleans()),
        # A page the dense table refuses: its row is a side row.
        st.tuples(st.just("far"), st.integers(0, 3), st.integers(1, 30)),
        st.tuples(st.just("rebalance")),
    ), min_size=4, max_size=50))
    return {
        "capacities": capacities,
        "universe": universe,
        "interval": draw(st.sampled_from([37, 64, 5000])),
        "max_moves": draw(st.sampled_from([0, 1, 2, 3, 4, 8, 128])),
        "traced": draw(st.booleans()),
        "warm": draw(st.sampled_from(["points", "scan"])),
        "ops": ops,
    }


class Driver:
    """One pool under a scenario's operations."""

    def __init__(self, policy_cls, scenario):
        self.policy = policy_cls(
            rebalance_interval=scenario["interval"],
            max_moves_per_rebalance=scenario["max_moves"])
        self.pool = make_pool(self.policy, scenario["capacities"],
                              scenario["traced"])
        self.universe = scenario["universe"]
        self.session_clock = SimClock()

    def residents(self, slow: bool) -> list[int]:
        tiers = range(1, len(self.pool.tiers)) if slow else range(1)
        return [p for t in tiers for p in self.pool.resident_in(t)]

    def apply(self, op):
        pool = self.pool
        kind = op[0]
        if kind == "warm":
            # Point faults fill the fast tier first; scan faults are
            # admitted slow, leaving it empty for the fill phase.
            pool.preload(list(range(self.universe)),
                              is_scan=op[1] == "scan")
        elif kind == "scan":
            _, start, length, repeats = op
            ids = [(start + i) % self.universe for i in range(length)]
            for _ in range(repeats):
                pool.preload(ids, is_scan=True)
        elif kind == "points":
            pool.preload(op[1], write=op[2])
        elif kind == "hammer":
            pages = self.residents(op[1])
            if pages:
                for _ in range(op[3]):
                    pool.access(pages[op[2] % len(pages)])
        elif kind == "touch":
            pages = self.residents(op[1])
            if pages:
                pool.preload([pages[r % len(pages)] for r in op[2]])
        elif kind == "far":
            for _ in range(op[2]):
                pool.access(FAR + op[1])
        elif kind == "session":
            if op[1]:
                pool.session_begin(self.session_clock, contended=False)
            else:
                pool.session_end()
        else:
            return self.policy.rebalance()
        return None


def replay(scenario):
    """Drive the selecting policy and the full-sort oracle through one
    scenario, requiring the same outcome and state after every step."""
    fast = Driver(DbCostPolicy, scenario)
    oracle = Driver(OracleDbCostPolicy, scenario)
    for op in [("warm", scenario["warm"])] + list(scenario["ops"]):
        outcomes = []
        for driver in (fast, oracle):
            try:
                outcomes.append(repr(driver.apply(op)))
            except ReproError as exc:
                outcomes.append(f"{type(exc).__name__}: {exc}")
        assert outcomes[0] == outcomes[1], op
        assert full_state(fast.pool, fast.session_clock) == \
            full_state(oracle.pool, oracle.session_clock), op
        if "Error" in outcomes[0]:
            break
    return fast


@settings(max_examples=300)
@given(scenario=scenarios())
def test_rebalance_matches_full_sort_oracle(scenario):
    replay(scenario)


def test_evicted_victim_in_a_later_pair_is_skipped_not_fatal():
    """Slow tier full, so the first swap's demotion evicts the slow
    tier's LRU page — made here to be the second-hottest slow page,
    i.e. the next pair's candidate. The reference judges each pair
    when it reaches it and passes over the evicted one, so the budget
    of two pairs is met by reading three candidates deep."""
    fast = replay({
        "capacities": (4, 8), "universe": 20, "interval": 5000,
        "max_moves": 4, "traced": True, "warm": "points",
        "ops": [
            ("hammer", True, 0, 10),   # slow resident 0: hot, LRU-oldest
            ("hammer", True, 1, 20),   # slow resident 1: hottest
            ("hammer", True, 2, 8),
            ("hammer", True, 3, 5),
            ("touch", True, [4, 5, 6, 7]),
            ("rebalance",),
        ],
    })
    assert fast.policy.snapshot() == {
        "rebalances": 1, "moves": 4, "pairs_cut_unprofitable": 0,
        "evicted_skips": 1}
    assert fast.pool.resident_pages == 4 + 8 - 1  # the one eviction


def test_hand_made_scenario_reaches_the_hard_cases():
    """A three-tier pool whose slow tiers are full, a session clock
    and live triggers."""
    fast = replay({
        "capacities": (6, 5, 9), "universe": 28, "interval": 37,
        "max_moves": 8, "traced": True, "warm": "points",
        "ops": [("scan", 0, 28, 3), ("hammer", True, 3, 30),
                ("hammer", True, 9, 25), ("touch", True, list(range(14))),
                ("session", True), ("hammer", True, 5, 40),
                ("scan", 3, 200, 2), ("hammer", True, 1, 12),
                ("rebalance",)],
    })
    counters = fast.policy.snapshot()
    assert counters["rebalances"] > 10 and counters["moves"] > 0
    assert counters["pairs_cut_unprofitable"] > 0
    assert sum(t.evictions for t in fast.pool.stats.per_tier) > 0
    assert fast.session_clock.now > 0.0


def test_column_committed_rebalances_match_the_oracle():
    """Rebalances big enough for the column commit — a 70-frame fast
    tier filled from a warm scan, then swaps after the slow tier's
    pages heat up, with a side-table page resident and a session clock
    on — still move exactly what the full sort and one scalar
    ``migrate`` per page move."""
    touch = ("touch", True, list(range(40)))
    fast = replay({
        "capacities": (70, 160), "universe": 126, "interval": 5000,
        "max_moves": 128, "traced": True, "warm": "scan",
        "ops": [("hammer", True, 3, 5), ("rebalance",), touch, touch,
                ("rebalance",), touch, touch, touch, ("rebalance",),
                ("far", 1, 40), touch, touch, touch, touch, ("rebalance",),
                ("session", True), *[touch] * 5, ("rebalance",)],
    })
    assert fast.pool.lane.column_migrations > 0
    assert fast.policy.snapshot()["pairs_cut_unprofitable"] > 0


# -- observability ------------------------------------------------------------

def test_counters_identical_with_and_without_a_trace_sink():
    def drive(traced):
        policy = DbCostPolicy(rebalance_interval=64,
                              max_moves_per_rebalance=8)
        pool = make_pool(policy, (8, 24), traced)
        for page in range(30):
            pool.access(page)
        for round_ in range(40):
            pool.preload([(7 * round_ + i) % 30 for i in range(20)])
            pool.preload(list(range(30)), is_scan=True)
        return policy, pool

    (traced, traced_pool), (plain, plain_pool) = drive(True), drive(False)
    assert traced.snapshot() == plain.snapshot()
    assert traced_pool.lane.snapshot() == plain_pool.lane.snapshot()
    assert traced.snapshot()["moves"] == traced_pool.stats.migrations > 0
    assert traced.snapshot()["rebalances"] == (30 + 40 * 50) // 64
    plain_state = full_state(plain_pool)
    traced_state = full_state(traced_pool)
    del traced_state["spans"], traced_state["instants"]
    assert traced_state == plain_state


@pytest.mark.parametrize("capacities", [(500, 4_500), (500, 1_500, 3_000)])
def test_scan_warm_shaped_rebalance_takes_the_column_route(capacities):
    """A warm scan over a pool whose fast tier holds a sixth of the
    table — the ``scan_warm`` shape at a tenth of its size, on two
    tiers or three — moves every page by the column commit once the
    fast tier is full (before, the first run along each edge memoises
    its device times through the per-page step, and the fill's tail
    runs short), and a trace sink changes no counter."""
    def drive(traced):
        pool = make_pool(DbCostPolicy(), capacities, traced)
        pool.preload(np.arange(3_000, dtype=np.int64), nbytes=4096,
                     is_scan=True)
        counters = []
        for repeats in (10, 20):
            for block in scan_blocks(0, 3_000, repeats=repeats):
                pool.access_block(block)
            counters.append((pool.placement.snapshot(), pool.lane.snapshot(),
                             pool.stats.snapshot()))
        return counters

    traced, plain = drive(True), drive(False)
    assert traced == plain
    (warm, warm_lane, _), (placement, lane, _) = plain
    assert placement["rebalances"] == 3_000 * 31 // 5_000
    assert lane["column_migrations"] - warm_lane["column_migrations"] == \
        placement["moves"] - warm["moves"] > 0
    assert lane["step_migrations"] == warm_lane["step_migrations"]


def test_placement_namespace_in_metrics_snapshot():
    policy = DbCostPolicy(rebalance_interval=10**9)
    pool = make_pool(policy, (4, 16))
    for page in range(4):
        pool.access(page)
    pool.access(100, is_scan=True)
    for _ in range(50):
        pool.access(100)
    moved = policy.rebalance()
    snap = pool.ctx.snapshot()["placement"]
    assert snap == {"rebalances": 1, "moves": moved,
                    "pairs_cut_unprofitable": 0, "evicted_skips": 0}
    assert moved == 2
