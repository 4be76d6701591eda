"""Bit identity of the exact addition chains against the scalar loop.

``repeat_add``'s closed-form ladder is fuzzed case by case; the two
left folds, ``chain_values`` and ``repeat_add_vec``, are properties
against a Python fold over the same operands.
"""

from __future__ import annotations

import math
import random
import struct

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.ladder import chain_values, repeat_add, repeat_add_vec


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def scalar_repeat(x: float, d: float, n: int) -> float:
    for _ in range(n):
        x = x + d
    return x


def scalar_chain(x, vals, cls):
    """The reference semantics chain_values must reproduce exactly."""
    out = []
    for c in cls:
        x = x + vals[c]
        out.append(x)
    return x, out


NS = [0, 1, 2, 3, 7, 31, 32, 33, 100, 1000, 12345]


def check(x, d, n):
    got = repeat_add(x, d, n)
    want = scalar_repeat(x, d, n)
    assert bits(got) == bits(want), (x, d, n, got, want)


def test_repeat_add_random_same_sign():
    rng = random.Random(1234)
    for _ in range(300):
        x = rng.uniform(0, 1) * 10.0 ** rng.randint(-3, 12)
        d = rng.uniform(0, 1) * 10.0 ** rng.randint(-6, 6)
        n = rng.choice(NS)
        check(x, d, n)
        check(-x, -d, n)


def test_repeat_add_extreme_magnitudes():
    rng = random.Random(99)
    for _ in range(200):
        x = rng.uniform(0.5, 2.0) * 2.0 ** rng.randint(-1070, 1000)
        d = rng.uniform(0.5, 2.0) * 2.0 ** rng.randint(-1074, 990)
        check(x, d, rng.choice(NS))


def test_repeat_add_exact_ties():
    rng = random.Random(7)
    for _ in range(200):
        x = rng.uniform(1.0, 2.0) * 2.0 ** rng.randint(-30, 40)
        u = math.ulp(x)
        q = rng.randint(0, 9)
        d = (q + 0.5) * u          # exact tie every step
        check(x, d, rng.choice(NS))
        check(x, 0.5 * u, 10000)   # steady-zero tie: absorbs after parity fix


def test_repeat_add_absorption_and_binade_edges():
    for x in [1.0, 1.5, 2.0 - math.ulp(1.0), 2.0, 3.0, 2.0 ** 52]:
        u = math.ulp(x)
        check(x, 0.25 * u, 5000)          # rounds down forever: absorbed
        check(x, 0.75 * u, 5000)          # rounds up every step
        check(x, u, 5000)
        check(x, 1000.5 * u, 5000)
    # walk across many binades
    check(1.0, 0.3, 100000)
    check(0.0, 1e-3, 100000)
    check(5e-324, 5e-324, 100000)


def test_repeat_add_special_values():
    check(1.0, 0.0, 7)
    check(-0.0, 0.0, 7)
    check(0.0, 1.5, 7)
    check(-0.0, 1.5, 7)
    for n in [0, 1, 2, 5]:
        for x, d in [(math.inf, 1.0), (1.0, math.inf), (-math.inf, 1.0),
                     (1.0, -math.inf)]:
            assert bits(repeat_add(x, d, n)) == bits(scalar_repeat(x, d, n))
    assert math.isnan(repeat_add(math.nan, 1.0, 3))
    assert math.isnan(repeat_add(1.0, math.nan, 3))


def test_repeat_add_mixed_signs():
    rng = random.Random(5)
    for _ in range(100):
        x = rng.uniform(-10, 10)
        d = rng.uniform(-1, 1)
        check(x, d, rng.randint(0, 200))


#: Starting values: zero, subnormal, and normal up to 1e15 ns.
STARTS = st.one_of(st.sampled_from([0.0, 5e-324, 1.0]),
                   st.floats(0.0, 2.0 ** -1022),
                   st.floats(0.0, 1e15))


@st.composite
def chains(draw):
    """(x, vals, cls): a start, 1-6 delta classes (0.0 and exact
    half-ulp ties of the start among them) plus, sometimes, an unused
    NaN class, and 1-4,096 class indices."""
    x = draw(STARTS)
    u = math.ulp(x)
    delta = st.one_of(st.just(0.0), st.floats(0.0, 1e4),
                      st.integers(0, 9).map(lambda q: (q + 0.5) * u))
    vals = draw(st.lists(delta, min_size=1, max_size=6))
    used = len(vals)
    if draw(st.booleans()):
        vals.append(math.nan)
    n = draw(st.integers(1, 4096))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    cls = np.random.default_rng(seed).integers(0, used, size=n)
    return x, np.array(vals), cls


@settings(max_examples=150)
@given(case=chains())
@example(case=(100.0, np.array([0.0, 13.25, 250.0, 1e-9, math.nan]),
               np.random.default_rng(5).integers(0, 4, size=5_000)))
@example(case=(0.0, np.array([0.0, 1e-300, 2.5]),
               np.array([0, 0, 1, 0, 1, 2, 0, 2, 1])))
@example(case=(1.0, np.array([math.ldexp(3.0, -53), math.ldexp(1.0, -52)]),
               np.array([0, 1] * 200)))
@example(case=(1.0, np.array([0.75]), np.zeros(64, dtype=np.int64)))
@example(case=(2.5, np.array([1.0]), np.zeros(0, dtype=np.int64)))
def test_chain_values_is_the_scalar_fold(case):
    """Every intermediate and the final value equal the Python loop's,
    also when ``out`` is a slice of a buffer an earlier call filled
    (the block window reuses one for its demand and fault chains)."""
    x, vals, cls = case
    vlist = vals.tolist()
    buf = np.full(cls.shape[0], -1.0)
    got = chain_values(x, vals, cls, buf)
    want, want_out = scalar_chain(x, vlist, cls.tolist())
    assert bits(got) == bits(want)
    assert buf.tobytes() == np.array(want_out).tobytes()
    sub = cls[::3]
    got = chain_values(want, vals, sub, buf[:sub.shape[0]])
    want, want_out = scalar_chain(want, vlist, sub.tolist())
    assert bits(got) == bits(want)
    assert buf[:sub.shape[0]].tobytes() == np.array(want_out).tobytes()


#: Counts spanning several of repeat_add_vec's bands (0, short, long).
COUNTS = st.one_of(st.integers(0, 3), st.integers(0, 40),
                   st.integers(0, 5_000))
HEATS = st.one_of(st.just(0.0), st.floats(0.0, 2.0 ** -1022),
                  st.floats(0.0, 1e12))


def check_vec(heat, w, counts):
    wl = np.broadcast_to(np.asarray(w, dtype=np.float64), heat.shape)
    want = np.array([scalar_repeat(h, wi, c) for h, wi, c in
                     zip(heat.tolist(), wl.tolist(), counts.tolist())])
    got = heat.copy()
    repeat_add_vec(got, w, counts.copy())
    assert got.tobytes() == want.tobytes()


@settings(max_examples=60)
@given(rows=st.lists(st.tuples(HEATS, COUNTS, st.floats(0.0, 1e3)),
                     min_size=1, max_size=24),
       scalar=st.one_of(st.none(), st.sampled_from([1.0, 0.1, 0.35, 0.0])))
def test_repeat_add_vec_matches_scalar(rows, scalar):
    """Per-row or scalar weights, along each row, equal the loop."""
    heat = np.array([h for h, _, _ in rows])
    counts = np.array([c for _, c, _ in rows], dtype=np.int64)
    w = np.array([w for _, _, w in rows]) if scalar is None else scalar
    check_vec(heat, w, counts)


@settings(max_examples=60)
@given(rows=st.lists(st.tuples(HEATS, COUNTS,
                               st.sampled_from([0.25, 0.5, 0.75, 1.0,
                                                1.5, 1000.5])),
                     min_size=1, max_size=24))
def test_repeat_add_vec_ties_and_absorption(rows):
    """Weights a fixed multiple of each heat's ulp: below a half ulp
    the adds absorb, at an odd half they tie by parity."""
    heat = np.array([h for h, _, _ in rows])
    counts = np.array([c for _, c, _ in rows], dtype=np.int64)
    w = np.array([m * math.ulp(h) for h, _, m in rows])
    check_vec(heat, w, counts)
