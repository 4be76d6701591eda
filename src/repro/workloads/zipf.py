"""Zipfian sampling.

Database access skew is classically modelled as a Zipf distribution
(YCSB uses theta ~= 0.99). :class:`ZipfGenerator` precomputes the CDF
once with numpy and then samples by inverse-CDF lookup: a guide table
answers most draws of a large batch directly and a binary search
(O(log n)) the rest, which keeps multi-million access traces fast.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError


class ZipfGenerator:
    """Draws ranks in [0, n) with P(rank k) proportional to 1/(k+1)^theta.

    ``theta == 0`` degenerates to uniform; larger values are more
    skewed. Ranks can be permuted (``scramble=True``) so that hot items
    are scattered across the key space, as YCSB does.
    """

    def __init__(self, n: int, theta: float = 0.99,
                 scramble: bool = False, seed: int = 42) -> None:
        if n <= 0:
            raise ConfigError(f"population size must be positive: {n}")
        if theta < 0:
            raise ConfigError(f"theta must be non-negative: {theta}")
        self.n = n
        self.theta = theta
        self._rng = np.random.default_rng(seed)
        weights = 1.0 / np.power(np.arange(1, n + 1, dtype=np.float64), theta)
        self._cdf = np.cumsum(weights)
        self._cdf /= self._cdf[-1]
        if scramble:
            self._permutation = self._rng.permutation(n)
        else:
            self._permutation = None

    def sample(self, count: int = 1) -> np.ndarray:
        """Draw *count* ranks as an int64 array."""
        if count < 0:
            raise ConfigError(f"cannot draw {count} samples")
        ranks = self._ranks(self._rng.random(count))
        if self._permutation is not None:
            ranks = self._permutation[ranks]
        # searchsorted/permutation indexing already yield int64 on
        # 64-bit platforms; copy=False makes the cast a no-op there.
        return ranks.astype(np.int64, copy=False)

    def _ranks(self, uniform: np.ndarray) -> np.ndarray:
        """``searchsorted(cdf, uniform, "left")``, most of it unsearched.

        A guide table ``g[b] = searchsorted(cdf, b / K)`` brackets the
        rank of every ``u`` in bucket ``b = floor(u * K)``: ``g[b] <=
        rank(u) <= g[b + 1]``. Where the two differ by at most one the
        rank is ``g[b]``, or one more when ``u > cdf[g[b]]``; only
        draws in wider buckets are searched. ``K`` is a power of two
        (``u * K`` and ``b / K`` are then exact), sized from the draw
        so that the table costs less than it saves and stops growing
        once a bucket rarely spans two ranks. A draw too small for a
        table, or a cdf too flat for this one, is searched plainly.
        """
        cdf = self._cdf
        bits = min(len(uniform) // 2, 16 * self.n).bit_length() - 1
        if bits >= 8:
            buckets = 1 << bits
            guide = np.searchsorted(
                cdf, np.arange(buckets + 1) / buckets, side="left")
            wide = np.diff(guide) > 1
            if 2 * np.count_nonzero(wide) <= buckets:
                bucket = (uniform * buckets).astype(np.intp)
                ranks = guide[bucket]
                rest = np.flatnonzero(wide[bucket])
                del bucket  # one count-sized array fewer at the peak
                ranks += uniform > cdf[ranks]
                ranks[rest] = np.searchsorted(cdf, uniform[rest],
                                              side="left")
                return ranks
        return np.searchsorted(cdf, uniform, side="left")

    def one(self) -> int:
        """Draw a single rank."""
        return int(self.sample(1)[0])

    def probability_of_rank(self, rank: int) -> float:
        """Exact probability mass of a rank (pre-scramble)."""
        if not 0 <= rank < self.n:
            raise ConfigError(f"rank out of range: {rank}")
        lo = self._cdf[rank - 1] if rank > 0 else 0.0
        return float(self._cdf[rank] - lo)

    def hot_set_mass(self, fraction: float) -> float:
        """Probability mass of the hottest *fraction* of items.

        E.g. with theta=0.99 and fraction=0.1 this is ~0.76 — the
        classic "10% of pages take ~3/4 of the traffic" shape that
        makes tiering work.
        """
        if not 0.0 < fraction <= 1.0:
            raise ConfigError(f"fraction must be in (0,1]: {fraction}")
        k = max(1, int(self.n * fraction))
        return float(self._cdf[k - 1])
