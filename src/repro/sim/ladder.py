"""Exact addition chains for the vectorised buffer-pool lane.

The simulator's scalar hot loop advances its clock and demand
accumulators one IEEE-754 addition at a time::

    for _ in range(count):
        now += delta          # think / latency / post chains

The array lanes must reproduce those floats **bit-identically** while
touching Python once per *segment* instead of once per access.  One
tool does it: a *left fold*.  ``np.add.accumulate`` writes each output
as the previous output plus the next input, rounded once: that is the
scalar loop itself, run in C, whatever the operands' binades, signs,
ties or subnormals.  Nothing is re-associated, so there is nothing to
prove per case.  :func:`chain_values` folds one chain of mixed deltas
and keeps every intermediate, :func:`left_fold` one chain of given
deltas; :func:`repeat_add` folds one constant
and keeps the last; :func:`repeat_add_vec` folds many rows of one
repeated weight each.
"""

from __future__ import annotations

import numpy as np

__all__ = ["repeat_add", "left_fold", "chain_values", "repeat_add_vec"]


def repeat_add(x: float, d: float, n: int) -> float:
    """Return the result of ``n`` sequential ``x = x + d`` additions.

    The left fold of ``x`` and ``n`` copies of ``d``: bit-identical to
    the scalar loop for every input, in O(n) time and memory.
    """
    if n <= 0:
        return x
    col = np.full(n + 1, d)
    col[0] = x
    return float(np.add.accumulate(col, out=col)[-1])


def left_fold(x: float, deltas: np.ndarray) -> np.ndarray:
    """Every intermediate of the addition chain ``x += deltas[i]``
    (non-empty *deltas*), as a new array; the last is the result."""
    out = deltas.astype(np.float64)
    out[0] += x
    return np.add.accumulate(out, out=out)


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
