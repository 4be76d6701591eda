"""Property tests: the vectorised contention scheduler.

Three families of invariants back the quantum machinery:

* lane identity — the pool (quantum lane) and its reference twin (the
  scalar access loop) produce byte-identical session reports, samples
  and quantum counts included, at every morsel quantum under randomly
  generated contending session sets;
* array reservations — ``WaitQueue.reserve_run`` replays the
  ``occupy_run`` loop bit for bit on arbitrary (including unsorted)
  arrival orders, list or ndarray form;
* quantum consumption — ``ShapeSegments.next_span`` under random
  budgets walks the trace's access sequence, and
  ``TieredBufferPool.access_quantum`` matches per-run charging float
  for float, frame for frame.
"""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ClientSession, ScaleUpEngine, StaticPolicy
from repro.sim.bandwidth import WaitQueue
from repro.sim.context import SimContext
from repro.workloads import scan_blocks
from repro.workloads.traces import ShapeSegments

from tests.oracle.reference import reference
from tests.oracle.traces import Access, accesses_to_blocks, from_accesses


def contended_engine(pages: int, fast: bool = True) -> ScaleUpEngine:
    ctx = SimContext()
    engine = ScaleUpEngine.build(
        dram_pages=1, cxl_pages=pages,
        placement=StaticPolicy(lambda _p: 1),
        with_storage=False, ctx=ctx,
    )
    engine.warm_with(scan_blocks(0, pages - 8, repeats=1, think_ns=0.0))
    return engine if fast else reference(engine)


def pool_digest(engine):
    stats = engine.pool.stats
    return (
        repr(engine.pool.clock.now),
        repr(stats.demand_time_ns),
        stats.accesses, stats.misses,
        tuple(tier.hits for tier in stats.per_tier),
    )


def full_digest(report, engine):
    """Every SessionRunReport float incl. per-quantum samples."""
    parts = [repr(report.makespan_ns)]
    for name in sorted(report.sessions):
        s = report.sessions[name]
        parts.append((
            name, s.ops, repr(s.demand_ns), repr(s.think_ns),
            repr(s.wait_ns), repr(s.end_ns), s.misses, s.quanta,
            tuple(s.samples),
        ))
    return tuple(parts) + pool_digest(engine)


def random_sessions(rng: random.Random, pages: int) -> list[ClientSession]:
    """2-4 contending sessions: zipf-ish points with writes and mixed
    think times, plus block scans — the shapes that cut runs short."""
    sessions = []
    for i in range(rng.randint(2, 4)):
        ops = rng.randint(40, 120)
        if rng.random() < 0.5:
            trace = [
                Access(page_id=rng.randrange(pages - 8),
                       write=rng.random() < 0.25,
                       think_ns=float(rng.choice([0.0, 50.0, 200.0])))
                for _ in range(ops)
            ]
        else:
            start = rng.randrange((pages - 8) // 2)
            trace = [
                Access(page_id=start + j % ((pages - 8) // 2),
                       is_scan=True, nbytes=16_384)
                for j in range(ops)
            ]
        sessions.append(ClientSession(f"s{i}", [from_accesses(trace)]))
    return sessions


class TestSchedulerLaneIdentity:
    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=6, deadline=None)
    def test_lanes_identical_across_morsel_and_escalation(self, seed):
        pages = 600

        def run(fast, morsel_ops):
            engine = contended_engine(pages, fast=fast)
            rng = random.Random(seed)
            report = engine.run_sessions(
                random_sessions(rng, pages), morsel_ops=morsel_ops)
            return full_digest(report, engine)

        for morsel_ops in (1, 7, 32, 10**9):
            assert run(True, morsel_ops) == run(False, morsel_ops), (
                f"lane divergence at morsel_ops={morsel_ops}")


class TestReserveRun:
    @given(
        entries=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1e9,
                          allow_nan=False, allow_infinity=False),
                st.integers(min_value=1, max_value=50),
            ),
            min_size=1, max_size=24,
        ),
        nbytes=st.sampled_from([64, 4_096, 65_536]),
        write=st.booleans(),
        prior=st.floats(min_value=0.0, max_value=1e9,
                        allow_nan=False, allow_infinity=False),
        as_array=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_reserve_run_matches_occupy_loop(self, entries, nbytes,
                                             write, prior, as_array):
        """Arbitrary (unsorted) arrival orders: reserve_run must equal
        the sequential occupy_run chain bit for bit — free_at, busy
        time, bytes, and grants."""
        lasts = [t for t, _ in entries]
        counts = [c for _, c in entries]
        loop = WaitQueue("loop", 0.1, 0.05)
        bulk = WaitQueue("bulk", 0.1, 0.05)
        loop._free_at = bulk._free_at = prior
        for t, c in entries:
            loop.occupy_run(t, nbytes, c, write)
        if as_array:
            bulk.reserve_run(np.asarray(lasts, dtype=np.float64),
                             nbytes, np.asarray(counts, dtype=np.int64),
                             write)
        else:
            bulk.reserve_run(lasts, nbytes, counts, write)
        assert repr(loop._free_at) == repr(bulk._free_at)
        a, b = loop.snapshot(), bulk.snapshot()
        assert set(a) == set(b)
        for key in a:
            assert repr(float(a[key])) == repr(float(b[key])), key


def random_trace(rng: random.Random, n: int) -> list[Access]:
    return [
        Access(page_id=rng.randrange(500),
               write=rng.random() < 0.3,
               is_scan=rng.random() < 0.2,
               nbytes=rng.choice([64, 4_096]),
               think_ns=float(rng.choice([0.0, 100.0])))
        for _ in range(n)
    ]


def _flatten_spans(segments: ShapeSegments, rng: random.Random):
    """Walk *segments* with ``next_span`` under random budgets, checking
    each span's shape: segments tile ``[first start, last stop)`` in
    order, each one shape, and cover exactly the reported count."""
    out = []
    while True:
        budget = rng.randint(1, 24)
        span = segments.next_span(budget)
        if span is None:
            return out
        ids, segs, count = span
        assert 0 < count <= budget
        assert sum(b - a for a, b, *_ in segs) == count
        assert all(a < b for a, b, *_ in segs)
        assert all(prev[1] == cur[0] for prev, cur in zip(segs, segs[1:]))
        for a, b, nbytes, write, is_scan, think_ns in segs:
            for pid in ids[a:b].tolist():
                out.append(Access(page_id=int(pid), write=bool(write),
                                  is_scan=bool(is_scan), nbytes=nbytes,
                                  think_ns=float(think_ns)))


class TestQuantumConsumption:
    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_next_span_next_run_interleave_identical(self, seed):
        """next_span under random budgets walks the trace's Access
        list itself, element for element, whatever the packing."""
        rng = random.Random(seed)
        trace = random_trace(rng, rng.randint(1, 300))
        block_ops = rng.choice([8, 64, 10**9])
        walked = _flatten_spans(
            ShapeSegments(accesses_to_blocks(trace, block_ops=block_ops)),
            random.Random(seed + 1))
        assert walked == trace

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_access_quantum_matches_per_run(self, seed):
        """One access_quantum call equals access_run per segment:
        same accumulator boundaries, same pool floats, same frames."""
        rng = random.Random(seed)
        pages = 400
        n = rng.randint(2, 200)
        ids = np.array([rng.randrange(pages - 8) for _ in range(n)],
                       dtype=np.int64)
        n_cuts = rng.randint(0, min(6, n - 1))
        cuts = sorted(rng.sample(range(1, n), n_cuts)) if n_cuts else []
        bounds = [0] + cuts + [n]
        segs = [
            (a, b, rng.choice([64, 4_096]), rng.random() < 0.3,
             rng.random() < 0.2, float(rng.choice([0.0, 100.0])))
            for a, b in zip(bounds, bounds[1:])
        ]

        quantum_engine = contended_engine(pages)
        per_run_engine = contended_engine(pages)
        pool_q = quantum_engine.pool
        pool_r = per_run_engine.pool

        accum_q, demands_q = pool_q.access_quantum(ids, segs, 0.0)
        accum_r = 0.0
        demands_r = []
        for a, b, nbytes, write, is_scan, think_ns in segs:
            accum_r = pool_r.access_run(
                ids[a:b], nbytes=nbytes, write=write, is_scan=is_scan,
                think_ns=think_ns, accum=accum_r)
            demands_r.append(accum_r)
        assert repr(accum_q) == repr(accum_r)
        assert [repr(d) for d in demands_q] == [repr(d) for d in demands_r]
        assert pool_digest(quantum_engine) == pool_digest(per_run_engine)

        for pid in sorted(set(ids.tolist())):
            fq = pool_q.frame_of(pid)
            fr = pool_r.frame_of(pid)
            assert (fq.accesses, repr(fq.last_access_ns), fq.dirty) == (
                fr.accesses, repr(fr.last_access_ns), fr.dirty), pid
