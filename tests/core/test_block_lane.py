"""The block-native buffer pool lane: identity and residency table.

``TieredBufferPool.access_block`` resolves whole ``AccessBlock``
columns in numpy array ops against a dense residency table. These
tests pin the two contracts that lane must keep:

* **bit-identity** — any mix of scalar ``Access`` objects and
  ``AccessBlock`` chunks, on the pool or its reference twin
  (``tests.oracle.reference``), produces byte-identical
  simulated results (same ``tests.core.digests`` digest) across very short
  same-shape runs, mid-run migrations, faults raised inside blocks, and
  concurrent-session contention;
* **residency-table consistency** — the dense table and the
  insertion-order index (``resident_order`` / ``resident_in``) always
  agree with the frame map after evictions, migrations, ``drop_all``
  and ``resize_tier``.
"""

import math
import random
from dataclasses import replace

import numpy as np
import pytest

from repro import config
from repro.core.buffer import Tier, TieredBufferPool
from repro.core.engine import ScaleUpEngine
from repro.core.placement import DbCostPolicy, OSPagingPolicy
from repro.core.temperature import SampledTracker
from repro.errors import BufferPoolError
from repro.sim.context import SimContext
from repro.sim.interconnect import AccessPath
from repro.sim.ladder import chain_values
from repro.sim.memory import MemoryDevice
from repro.workloads.scans import mixed_htap_blocks, mixed_htap_trace
from repro.workloads.traces import Access, AccessBlock

from tests.core.digests import digest_report, pool_payload
from tests.oracle.reference import reference

#: Run lengths around this are the shortest segments a block can hold:
#: one access by hand, then a scalar mini-loop far below any ladder.
SHORT_RUN = 3


def fingerprint(trace, fast, *, dram=256, cxl=900, placement=None,
                with_storage=True):
    """Run *trace* on a fresh engine; digest every simulated quantity."""
    engine = ScaleUpEngine.build(
        dram_pages=dram, cxl_pages=cxl, placement=placement,
        with_storage=with_storage, name="block-lane-test",
        ctx=SimContext(),
    )
    if not fast:
        reference(engine)
    report = engine.run(trace)
    return digest_report(engine, report), report


def random_trace(seed, ops=4_000, pages=700):
    """A run-structured random trace: shapes repeat for random run
    lengths so segments fall on both sides of SHORT_RUN, then change
    so segments stay short as well as long."""
    rng = random.Random(seed)
    out = []
    while len(out) < ops:
        run = rng.choice([1, 2, SHORT_RUN, SHORT_RUN + 1, 8, 40])
        write = rng.random() < 0.25
        is_scan = rng.random() < 0.3
        nbytes = 4096 if is_scan else 64
        think = rng.choice([0.0, 50.0])
        base = rng.randrange(pages)
        for i in range(run):
            out.append(Access(
                page_id=(base + i) % pages, write=write,
                is_scan=is_scan, nbytes=nbytes, think_ns=think,
            ))
    return out[:ops]


def random_mix(scalar, seed):
    """Randomly repackage a scalar trace into interleaved scalar
    stretches and AccessBlock chunks (lossless)."""
    rng = random.Random(seed)
    mixed = []
    i = 0
    while i < len(scalar):
        chunk = min(rng.randrange(1, 600), len(scalar) - i)
        part = scalar[i:i + chunk]
        if rng.random() < 0.5:
            mixed.append(AccessBlock.from_accesses(part))
        else:
            mixed.extend(part)
        i += chunk
    return mixed


class TestRandomizedMixedIdentity:
    """Random traces, random block boundaries, both lanes: one digest."""

    @pytest.mark.parametrize("seed", [0, 17, 91])
    def test_mixed_delivery_and_lanes_agree(self, seed):
        scalar = random_trace(seed)
        mixed = random_mix(scalar, seed + 1)
        ref, _ = fingerprint(scalar, False)
        for fast in (False, True):
            got, _ = fingerprint(mixed, fast)
            assert got == ref, f"lane fast={fast} diverged (seed {seed})"

    def test_min_batch_run_boundaries(self):
        # Runs of exactly SHORT_RUN-1 / SHORT_RUN / SHORT_RUN+1
        # repeated accesses: run length must not change the physics,
        # only the code path.
        trace = []
        for rep in (SHORT_RUN - 1, SHORT_RUN, SHORT_RUN + 1):
            for page in range(0, 300, 7):
                trace.extend(
                    Access(page_id=page, nbytes=64)
                    for _ in range(rep)
                )
        block = [AccessBlock.from_accesses(trace)]
        ref, _ = fingerprint(trace, False)
        for fast in (False, True):
            got, _ = fingerprint(block, fast)
            assert got == ref

    def test_mid_run_migrations(self):
        # A tiny rebalance interval forces placement migrations while
        # block runs are in flight; the lanes must still agree and the
        # run must actually migrate (otherwise the test is vacuous).
        htap = dict(oltp_pages=200, olap_pages=500, oltp_ops=2_000,
                    olap_repeats=2, oltp_per_olap=1, seed=5)
        policy = lambda: DbCostPolicy(rebalance_interval=64)  # noqa: E731
        slow, rep_slow = fingerprint(
            mixed_htap_blocks(**htap), False, placement=policy())
        fast, rep_fast = fingerprint(
            mixed_htap_blocks(**htap), True, placement=policy())
        assert rep_fast.migrations > 0
        assert fast == slow

    def test_faults_inside_blocks(self):
        # Capacities far below the working set: most block rows fault
        # and evict. Identity must hold down to backing-store stats.
        trace = list(mixed_htap_trace(
            oltp_pages=150, olap_pages=400, oltp_ops=1_200, seed=13))
        blocks = [AccessBlock.from_accesses(trace)]
        ref, rep = fingerprint(trace, False, dram=32, cxl=64)
        assert rep.misses > len(trace) // 4
        for fast in (False, True):
            got, _ = fingerprint(blocks, fast, dram=32, cxl=64)
            assert got == ref

    def test_block_walk_route(self):
        # A placement note that may read the scan flag (no
        # ``scan_blind`` mark — here an override of OSPagingPolicy's,
        # which carries one) keeps the block off the integer-exact
        # _block_exact window: it is charged one access_run per
        # uniform-shape segment — and still matches the scalar replay
        # bit for bit, as the marked policy on the exact lane does. So
        # do a pool tracker without ``record_block`` and page ids past
        # the dense residency table, the other ways off the window.
        class FlagReadingPolicy(OSPagingPolicy):
            def note_accesses(self, page_ids, start, end, is_scan=False):
                super().note_accesses(page_ids, start, end, is_scan)

        def engine_for(policy, tracker):
            built = ScaleUpEngine.build(
                dram_pages=256, cxl_pages=900, placement=policy(),
                name="block-lane-test", ctx=SimContext(),
            )
            if tracker is None:
                return built
            return ScaleUpEngine(TieredBufferPool(
                tiers=built.pool.tiers, backing=built.pool.backing,
                placement=policy(), tracker=tracker(),
            ))

        trace = list(mixed_htap_trace(
            oltp_pages=200, olap_pages=400, oltp_ops=1_500, seed=7))
        far = [replace(a, page_id=a.page_id + (1 << 22)) for a in trace]
        for policy, tracker, accesses, decline in (
                (FlagReadingPolicy, None, trace, "note"),
                (OSPagingPolicy, None, trace, None),
                (OSPagingPolicy, SampledTracker, trace, "tracker"),
                (OSPagingPolicy, None, far, "id_range")):
            ref = reference(engine_for(policy, tracker))
            want = digest_report(ref, ref.run(accesses))
            engine = engine_for(policy, tracker)
            report = engine.run([AccessBlock.from_accesses(accesses)])
            lane = engine.pool.lane
            assert (lane.exact_windows > 0) is (decline is None)
            assert lane.segment_blocks == (decline is not None)
            assert {k for k, v in lane.declines.items() if v} == \
                ({decline} - {None})
            assert digest_report(engine, report) == want


class TestSessionContention:
    """access_run under concurrent sessions: lanes agree."""

    def _engine(self, fast):
        engine = ScaleUpEngine.build(
            dram_pages=256, cxl_pages=2_000,
            placement=DbCostPolicy(), with_storage=False,
            name="contended", ctx=SimContext(),
        )
        return engine if fast else reference(engine)

    def _digest(self, engine, report):
        stats = engine.pool.stats
        return (
            tuple(sorted(
                (sid, s.ops, repr(s.total_ns), repr(s.demand_ns),
                 s.misses)
                for sid, s in report.sessions.items()
            )),
            repr(engine.pool.clock.now),
            repr(stats.demand_time_ns),
            repr(stats.fault_time_ns),
            stats.accesses, stats.misses, stats.migrations,
        )

    def test_contended_sessions_lane_identity(self):
        htap = dict(oltp_pages=400, olap_pages=700, oltp_ops=2_500,
                    seed=21)
        digests = []
        for fast in (False, True):
            engine = self._engine(fast)
            report = engine.run_sessions([
                list(mixed_htap_trace(**htap)),
                list(mixed_htap_blocks(**htap)),
            ])
            digests.append(self._digest(engine, report))
        assert digests[0] == digests[1]

    def test_access_run_matches_access_batch(self):
        # access_run is the sessions' columnar entry point; on runs
        # long enough for the vector setup it must charge exactly what
        # the scalar loop (access_batch) charges for the same ids.
        rng = random.Random(3)
        ids = [rng.randrange(500) for _ in range(384)]
        engines = [self._engine(True) for _ in range(2)]
        for engine in engines:
            for page in range(500):
                engine.pool.access(page)
        got = engines[0].pool.access_run(
            np.asarray(ids, dtype=np.int64), nbytes=64)
        want = engines[1].pool.access_batch(ids, nbytes=64)
        assert repr(got) == repr(want)
        assert self._pool_digest(engines[0]) == \
            self._pool_digest(engines[1])

    @staticmethod
    def _pool_digest(engine):
        stats = engine.pool.stats
        return (
            repr(engine.pool.clock.now), repr(stats.demand_time_ns),
            stats.accesses, stats.hits, stats.misses,
            tuple(t.hits for t in stats.per_tier),
        )


def make_pool(dram=4, cxl=8):
    tiers = [
        Tier(name="dram",
             path=AccessPath(device=MemoryDevice(config.local_ddr5())),
             capacity_pages=dram),
        Tier(name="cxl",
             path=AccessPath(device=MemoryDevice(config.cxl_expander_ddr5())),
             capacity_pages=cxl),
    ]
    return TieredBufferPool(
        tiers=tiers, placement=DbCostPolicy(rebalance_interval=10_000),
    )


def assert_residency_consistent(pool):
    """The residency table, the insertion-order index and the frame
    views must tell the same story."""
    pool.check_invariants()
    seen = {}
    order, tiers = pool.resident_order()
    for tier_index in range(len(pool.tiers)):
        ids = order[tiers == tier_index]
        assert ids.dtype == np.int64
        listed = list(pool.resident_in(tier_index))
        assert listed == ids.tolist()
        assert len(listed) == pool.tier_residents(tier_index)
        for pid in listed:
            assert pool.tier_of(pid) == tier_index
            assert pid not in seen, "page resident in two tiers"
            seen[pid] = tier_index
    assert pool.resident_pages == len(seen)
    for pid, tier_index in seen.items():
        assert pool.frame_of(pid).tier_index == tier_index


class TestResidencyTableConsistency:
    def test_after_evictions(self):
        pool = make_pool(dram=3, cxl=5)
        for page in range(40):
            pool.access(page)
        assert pool.stats.misses == 40
        assert_residency_consistent(pool)

    def test_after_migrations(self):
        pool = make_pool(dram=4, cxl=8)
        for page in range(6):
            pool.access(page)
        for page in list(pool.resident_in(0)):
            pool.migrate(page, 1)
        assert pool.tier_residents(0) == 0
        assert_residency_consistent(pool)
        # And back again into the now-empty fast tier.
        for page in list(pool.resident_in(1))[:3]:
            pool.migrate(page, 0)
        assert_residency_consistent(pool)

    def test_after_drop_all(self):
        pool = make_pool()
        for page in range(10):
            pool.access(page)
        pool.drop_all()
        assert pool.resident_pages == 0
        assert_residency_consistent(pool)
        # The table must come back clean for reuse.
        for page in range(10, 16):
            pool.access(page)
        assert_residency_consistent(pool)

    def test_after_resize_tier(self):
        pool = make_pool(dram=6, cxl=8)
        for page in range(12):
            pool.access(page)
        pool.resize_tier(0, 2)  # shrink: forces spill out of dram
        assert pool.tier_residents(0) <= 2
        assert_residency_consistent(pool)
        pool.resize_tier(0, 10)  # grow back; nothing moves
        assert_residency_consistent(pool)
        for page in range(12, 24):
            pool.access(page)
        assert_residency_consistent(pool)

    def test_block_lane_keeps_table_consistent(self):
        engine = ScaleUpEngine.build(
            dram_pages=32, cxl_pages=64, name="res-table",
            ctx=SimContext(),
        )
        trace = list(mixed_htap_trace(
            oltp_pages=100, olap_pages=200, oltp_ops=800, seed=2))
        engine.run([AccessBlock.from_accesses(trace)])
        assert_residency_consistent(engine.pool)


@pytest.mark.parametrize("fast", [False, True])
@pytest.mark.parametrize("think", [-1e6, math.nan])
@pytest.mark.parametrize("entry", ["block", "batch", "run", "quantum"])
def test_negative_or_nan_think_is_refused(entry, think, fast):
    # A negative think ran the block lane's clock backwards (106,789 ->
    # -9,892,451 ns over ten resident pages) and NaN poisoned it, on
    # either lane. Every entry point refuses both, and the ones that
    # take a column or several segments do so before charging anything.
    pool = make_pool()
    if not fast:
        reference(pool)
    ids = np.arange(10, dtype=np.int64)
    for page in ids.tolist():
        pool.access(page)
    before = (repr(pool.clock.now), pool.stats.accesses)
    thinks = np.zeros(10)
    thinks[7] = think
    with pytest.raises(BufferPoolError, match="think_ns"):
        if entry == "block":
            pool.access_block(AccessBlock(
                ids, np.zeros(10, bool), np.zeros(10, bool),
                np.full(10, 64), thinks))
        elif entry == "batch":
            pool.access_batch(ids.tolist(), think_ns=think)
        elif entry == "run":
            pool.access_run(ids, think_ns=think)
        else:
            pool.access_quantum(ids, [(0, 7, 64, False, False, 0.0),
                                      (7, 10, 64, False, False, think)])
    assert (repr(pool.clock.now), pool.stats.accesses) == before


def charge_size(pool, entry, ids, size):
    """Charge the two accesses *ids*, the second of size *size*,
    through one public entry point (``access`` charges only that one)."""
    if entry == "access":
        return pool.access(int(ids[1]), nbytes=size)
    if entry == "batch":
        return pool.access_batch(ids.tolist(), nbytes=size)
    if entry == "run":
        return pool.access_run(ids, nbytes=size)
    if entry == "quantum":
        return pool.access_quantum(ids, [(0, 1, 64, False, False, 0.0),
                                         (1, 2, size, False, False, 0.0)])
    return pool.access_block(AccessBlock(
        ids, np.zeros(2, bool), np.zeros(2, bool), np.array([64, size]),
        np.zeros(2)))


def sized_pool(fast):
    pool = ScaleUpEngine.build(dram_pages=8, cxl_pages=16,
                               ctx=SimContext()).pool
    if not fast:
        reference(pool)
    pool.preload(np.arange(4, dtype=np.int64))
    return pool


ENTRIES = ["access", "batch", "run", "quantum", "block"]


@pytest.mark.parametrize("fast", [False, True], ids=["compat", "fast"])
@pytest.mark.parametrize("resident", [True, False], ids=["hit", "miss"])
@pytest.mark.parametrize("size", [-64, math.nan, math.inf])
@pytest.mark.parametrize("entry", ENTRIES)
def test_bad_access_size_is_refused(entry, size, resident, fast):
    # What a bad size did used to depend on residency and lane: a NaN
    # hit returned NaN and left it on the clock, a miss charged a full
    # fault (10,678.9 ns) for a size of -64 or NaN, and a negative hit
    # raised a bare ValueError from the transfer model. Every entry
    # point now refuses it before anything is charged.
    pool = sized_pool(fast)
    before = (repr(pool.clock.now), pool_payload(pool))
    ids = np.array([3, 2] if resident else [9, 10], dtype=np.int64)
    with pytest.raises(BufferPoolError, match="nbytes"):
        charge_size(pool, entry, ids, size)
    assert (repr(pool.clock.now), pool_payload(pool)) == before
    pool.check_invariants()


@pytest.mark.parametrize("fast", [False, True], ids=["compat", "fast"])
@pytest.mark.parametrize("entry", ENTRIES)
def test_zero_access_size_is_valid(entry, fast):
    pool = sized_pool(fast)
    accesses = pool.stats.accesses
    charge_size(pool, entry, np.array([3, 9], dtype=np.int64), 0)
    assert pool.stats.accesses == accesses + (1 if entry == "access" else 2)
    assert math.isfinite(pool.clock.now)
    pool.check_invariants()


@pytest.mark.parametrize("entry", ["run", "quantum", "preload"])
@pytest.mark.parametrize("kind", ["2-D", "float"])
def test_malformed_id_array_is_refused(kind, entry):
    # numpy used to refuse these itself, mid-route: TypeError for a 2-D
    # array, IndexError for a float one (which preload truncated to
    # ints without a word).
    pool = make_pool()
    for page in range(4):
        pool.access(page)
    before = (repr(pool.clock.now), pool.stats.accesses)
    ids = (np.arange(4).reshape(2, 2) if kind == "2-D"
           else np.array([0.0, 1.5]))
    with pytest.raises(BufferPoolError, match="1-D integer array"):
        if entry == "run":
            pool.access_run(ids)
        elif entry == "quantum":
            pool.access_quantum(ids, [(0, 2, 64, False, False, 0.0)])
        else:
            pool.preload(ids.tolist())
    assert (repr(pool.clock.now), pool.stats.accesses) == before


def test_empty_id_column_is_valid():
    # access_quantum used to die in numpy's max() of an empty column.
    pool = make_pool()
    empty = np.empty(0, dtype=np.int64)
    assert pool.access_quantum(empty, []) == (0.0, [])
    assert pool.access_quantum(
        empty, [(0, 0, 64, False, False, 0.0)], accum=2.5) == (2.5, [2.5])
    assert pool.access_run(empty, accum=2.5) == 2.5
    assert pool.preload([]) == 0.0
    assert (pool.clock.now, pool.stats.accesses) == (0.0, 0)
    assert not pool._lazy_runs


def scalar_chain(x, vals, cls):
    """The reference semantics chain_values must reproduce exactly."""
    out = []
    for c in cls:
        x = x + vals[c]
        out.append(x)
    return x, out


class TestChainValues:
    """The addition-chain kernel the array lane's timestamps come from."""

    def test_random_chain_bit_identical(self):
        rng = np.random.default_rng(5)
        vals = np.array([0.0, 13.25, 250.0, 1e-9, np.nan])
        cls = rng.integers(0, 4, size=5_000).astype(np.int64)
        out = np.empty(cls.shape[0])
        x = chain_values(100.0, vals, cls, out)
        want_x, want_out = scalar_chain(100.0, vals.tolist(), cls)
        assert repr(x) == repr(want_x)
        assert out.tolist() == want_out

    def test_scalar_step_fallback_from_zero(self):
        # A chain starting at 0.0, with a zero-delta class that keeps x
        # pinned there and a subnormal-scale delta, must still round
        # every step as the scalar loop does.
        vals = np.array([0.0, 1e-300, 2.5])
        cls = np.array([0, 0, 1, 0, 1, 2, 0, 2, 1], dtype=np.int64)
        out = np.empty(cls.shape[0])
        x = chain_values(0.0, vals, cls, out)
        want_x, want_out = scalar_chain(0.0, vals.tolist(), cls)
        assert repr(x) == repr(want_x)
        assert out.tolist() == want_out

    def test_exact_half_tie_rounds_by_parity(self):
        # x in [1, 2) has ulp 2^-52; a delta of exactly 1.5 ulp makes
        # every addition an exact-half tie, which IEEE resolves by
        # mantissa parity, so any reassociation of the chain shows.
        tie = math.ldexp(3.0, -53)
        vals = np.array([tie, math.ldexp(1.0, -52)])
        cls = np.array([0, 1] * 200, dtype=np.int64)
        out = np.empty(cls.shape[0])
        x = chain_values(1.0, vals, cls, out)
        want_x, want_out = scalar_chain(1.0, vals.tolist(), cls)
        assert repr(x) == repr(want_x)
        assert out.tolist() == want_out

    def test_binade_crossing(self):
        # Deltas large enough to push x across power-of-two boundaries
        # repeatedly, so the rounding step changes along the chain.
        vals = np.array([0.75])
        cls = np.zeros(64, dtype=np.int64)
        out = np.empty(64)
        x = chain_values(1.0, vals, cls, out)
        want_x, want_out = scalar_chain(1.0, vals.tolist(), cls)
        assert repr(x) == repr(want_x)
        assert out.tolist() == want_out
