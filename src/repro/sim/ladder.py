"""Exact addition chains for the vectorised buffer-pool lane.

The simulator's scalar hot loop advances its clock and demand
accumulators one IEEE-754 addition at a time::

    for _ in range(count):
        now += delta          # think / latency / post chains

The array lanes must reproduce those floats **bit-identically** while
touching Python once per *segment* instead of once per access.  Two
tools do it:

- A *left fold*.  ``np.add.accumulate`` writes each output as the
  previous output plus the next input, rounded once: that is the scalar
  loop itself, run in C, whatever the operands' binades, signs, ties
  or subnormals.  Nothing is re-associated, so there is nothing to
  prove per case.  :func:`chain_values` folds one chain of mixed deltas
  and keeps every intermediate; :func:`repeat_add_vec` folds many rows
  of one repeated weight each.
- A *closed form* for a long run of one constant.  Between binade
  crossings, repeated addition of ``d`` is an integer recurrence: write
  ``x = m * u`` with ``u = ulp(x)`` and round-to-nearest-even advances
  ``m`` by a constant increment (after at most one tie-parity step), so
  ``n`` additions collapse to one integer multiply-add and one exact
  ``ldexp``, classified in exact integer arithmetic via
  ``float.as_integer_ratio``.  :func:`repeat_add` is that ladder; it
  costs O(binade crossings), where a fold costs O(n), and callers that
  need only the final value of a long run use it.

Mixed-sign operands (the sum walks toward zero) make :func:`repeat_add`
fall back to the scalar loop; the simulator only ever adds positive
durations to non-negative clocks, so that path is cold by construction.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

TWO53 = 1 << 53
_TOP = TWO53 - 1          # largest integer multiple of ulp we model directly
_SCALAR_N = 32            # below this a plain Python loop is cheaper

__all__ = ["repeat_add", "chain_values", "repeat_add_vec"]


def repeat_add(x: float, d: float, n: int) -> float:
    """Return the result of ``n`` sequential ``x = x + d`` additions.

    Bit-identical to the scalar loop for every finite input; runs in
    O(binade crossings) when ``x`` and ``d`` share a sign.
    """
    if n <= 0:
        return x
    if d == 0.0:
        return x + d       # fixed point after one add (canonicalises -0.0)
    if not (math.isfinite(x) and math.isfinite(d)):
        for _ in range(min(n, 2)):   # inf/nan saturate within two adds
            x = x + d
        return x
    if d > 0.0:
        if x < 0.0:
            return _repeat_add_mixed(x, d, n)
        return _repeat_add_pos(x, d, n)
    if x > 0.0:
        return _repeat_add_mixed(x, d, n)
    return -_repeat_add_pos(-x, -d, n)   # IEEE rounding is sign-symmetric


def _repeat_add_mixed(x: float, d: float, n: int) -> float:
    # Opposite signs: |x| shrinks until the sum crosses zero, then the
    # same-sign ladder applies.  O(steps to cross); unused by the sim.
    while n and ((x > 0.0) is not (d > 0.0)) and x != 0.0:
        x = x + d
        n -= 1
    return repeat_add(x, d, n)


def _classify(m: int, ad: int, bd_bits: int, s: int) -> Tuple[int, int]:
    """(first_inc, steady_inc) for adding d = ad/2**bd_bits at scale 2**s.

    ``m`` is the current value in units of ``u = 2**s``.  Exact integer
    round-to-nearest-even: d/u = q + r/2**db; ties resolve on the parity
    of ``m + q``, which after one step is always even, giving a constant
    steady increment.
    """
    shift = -s - bd_bits
    if shift >= 0:
        q = ad << shift
        return q, q                       # d is an exact multiple of u
    db = -shift
    q = ad >> db
    r2 = (ad & ((1 << db) - 1)) << 1
    half = 1 << db
    if r2 < half:
        return q, q
    if r2 > half:
        return q + 1, q + 1
    return q + ((m + q) & 1), q + (q & 1)


def _repeat_add_pos(x: float, d: float, n: int) -> float:
    # Precondition: x >= 0 (or -0.0), d > 0, both finite.
    ad, bd = d.as_integer_ratio()
    bd_bits = bd.bit_length() - 1
    while n:
        if n < _SCALAR_N:
            for _ in range(n):
                x = x + d
            return x
        u = math.ulp(x)
        s = math.frexp(u)[1] - 1          # u == 2**s exactly
        ax, bx = x.as_integer_ratio()
        sx = -s - (bx.bit_length() - 1)
        m = ax << sx if sx >= 0 else ax >> -sx    # exact: x is a multiple of u
        first, steady = _classify(m, ad, bd_bits, s)
        if first == 0 and steady == 0:
            return x                       # absorbed: x + d rounds to x
        if first != steady:                # irregular tie-parity step
            if m + first > _TOP:
                x = x + d                  # binade edge: let hardware round
                n -= 1
                continue
            m += first
            n -= 1
            x = math.ldexp(float(m), s)    # exact: m < 2**53, u power of two
            if n == 0 or steady == 0:
                return x
        elif steady == 0:
            return x                       # tie absorbed at even m
        k = (_TOP - m) // steady
        if k <= 0:
            x = x + d
            n -= 1
            continue
        if k > n:
            k = n
        m += k * steady
        n -= k
        x = math.ldexp(float(m), s)
    return x


def chain_values(x: float, vals: np.ndarray, cls: np.ndarray,
                 out: np.ndarray) -> float:
    """Every intermediate of the addition chain ``x += vals[cls[i]]``.

    Writes the value *after* the i-th addition into ``out[i]`` (``out``
    has ``cls``'s length; a slice of a reused buffer will do) and
    returns the final value, all bit-identical to the scalar loop: the
    deltas are gathered into ``out``, ``x`` is added to the first, and
    ``np.add.accumulate`` folds the rest in order.  ``x + d`` and
    ``d + x`` round alike, so ``out[0]`` is the loop's first step.
    ``vals`` holds the distinct deltas and ``cls`` the per-addition
    class index; entries of ``vals`` no index names (NaN marks unused
    classes) are never read.
    """
    if not cls.shape[0]:
        return x
    np.take(vals, cls, out=out)
    out[0] += x
    np.add.accumulate(out, out=out)
    return float(out[-1])


def repeat_add_vec(heat: np.ndarray, weight, count: np.ndarray) -> None:
    """In place, apply ``count[i]`` sequential ``heat[i] += weight[i]`` adds.

    Elementwise :func:`repeat_add`, used by the temperature tracker for
    duplicated page ids, as a row fold: rows are banded by the binary
    exponent of their count, and each band is one grid whose column 0
    holds the heat and whose later columns the row's weight.
    ``np.add.accumulate`` along each row is the scalar loop, so column
    ``count[i]`` is the loop's result; the columns past a row's own
    count are never read.  The band bounds a grid to at most twice its
    rows' adds.  ``weight`` may be a scalar or an array broadcast
    against ``heat``; weights are finite and >= 0 (``ExactTracker``
    checks its scan weight so).  ``count`` is left unchanged.
    """
    w = np.asarray(weight, dtype=np.float64)
    band = np.frexp(count)[1]
    for e in np.unique(band).tolist():
        if not e:
            continue                          # count 0: no additions
        rows = np.flatnonzero(band == e)
        cnt = count[rows]
        grid = np.empty((rows.shape[0], int(cnt.max()) + 1))
        grid[:, 0] = heat[rows]
        grid[:, 1:] = w[rows, None] if w.ndim else w
        np.add.accumulate(grid, axis=1, out=grid)
        heat[rows] = grid[np.arange(rows.shape[0]), cnt]
