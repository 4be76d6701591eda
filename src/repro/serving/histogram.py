"""Exact mergeable histograms for sharded percentile folds.

``metrics.stats.Histogram`` accumulates float sums, so merging shard
histograms in different orders can differ in the last bit — useless
for a byte-identical contract. :class:`MergeableHistogram` stores only
**int64 bucket counts** over a fixed edge grid: adds are exact, merge
is integer addition (commutative and associative), and quantiles are
nearest-rank lookups that return bucket edges. Any partition of a
population into shards therefore folds to the *same bytes*, regardless
of shard count, merge order, or worker fan-out.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from ..errors import ConfigError


class MergeableHistogram:
    """Fixed-edge histogram with exact integer counts.

    ``edges`` must be strictly increasing. Bucket ``0`` counts values
    at or below ``edges[0]``; bucket ``i`` (1-based) counts values in
    ``(edges[i-1], edges[i]]``; the last bucket counts values above
    ``edges[-1]``. Quantiles report the upper edge of the bucket the
    nearest-rank observation fell in — a deterministic grid value, not
    an interpolation.
    """

    __slots__ = ("edges", "counts", "_edge_list")

    def __init__(self, edges: np.ndarray,
                 counts: np.ndarray | None = None) -> None:
        edges = np.asarray(edges, dtype=np.float64)
        if edges.ndim != 1 or len(edges) < 2:
            raise ConfigError("histogram needs at least two edges")
        if not (np.diff(edges) > 0).all():
            raise ConfigError("histogram edges must be strictly increasing")
        self.edges = edges
        self._edge_list = edges.tolist()
        if counts is None:
            counts = np.zeros(len(edges) + 1, dtype=np.int64)
        else:
            counts = np.asarray(counts, dtype=np.int64)
            if counts.shape != (len(edges) + 1,):
                raise ConfigError(
                    f"counts must have {len(edges) + 1} buckets")
            if (counts < 0).any():
                raise ConfigError("bucket counts must be non-negative")
        self.counts = counts

    # -- folding ------------------------------------------------------

    def add_many(self, values: np.ndarray) -> None:
        """Fold a chunk of observations in one vectorised pass."""
        values = np.asarray(values, dtype=np.float64)
        idx = np.searchsorted(self.edges, values, side="left")
        self.counts += np.bincount(idx, minlength=len(self.counts))

    def add(self, value: float) -> None:
        """Fold one observation into the bucket :meth:`add_many` would
        pick (NaN sorts past every edge there, so it overflows)."""
        if value != value:
            self.counts[-1] += 1
        else:
            self.counts[bisect_left(self._edge_list, value)] += 1

    def merge(self, other: "MergeableHistogram") -> "MergeableHistogram":
        """Exact in-place merge; requires an identical edge grid."""
        if (self.edges.shape != other.edges.shape
                or not (self.edges == other.edges).all()):
            raise ConfigError("cannot merge histograms with different edges")
        self.counts += other.counts
        return self

    def copy(self) -> "MergeableHistogram":
        return MergeableHistogram(self.edges, self.counts.copy())

    # -- reading ------------------------------------------------------

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile as a bucket upper edge.

        The underflow bucket reports ``edges[0]`` and the overflow
        bucket ``inf`` (the histogram only knows the value escaped the
        grid). Raises on an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigError(f"quantile must be in [0, 1], got {q}")
        total = self.total
        if total == 0:
            raise ConfigError("quantile of an empty histogram")
        rank = max(1, int(np.ceil(q * total)))
        bucket = int(np.searchsorted(np.cumsum(self.counts), rank,
                                     side="left"))
        # Upper edge of bucket b is edges[b]; the overflow bucket
        # (b == len(edges)) has no upper edge.
        if bucket >= len(self.edges):
            return float("inf")
        return float(self.edges[bucket])

    def count_at_or_below(self, edge: float) -> int:
        """Observations ``<= edge`` — exact when *edge* is a grid edge."""
        idx = int(np.searchsorted(self.edges, edge, side="right"))
        return int(self.counts[:idx].sum())

    def cdf(self) -> list[tuple[float, float]]:
        """(upper edge, cumulative fraction) per non-empty bucket."""
        total = self.total
        if total == 0:
            return []
        cum = np.cumsum(self.counts)
        out: list[tuple[float, float]] = []
        uppers = np.concatenate([self.edges, [np.inf]])
        for i in range(1, len(self.counts)):
            if self.counts[i]:
                out.append((float(uppers[i - 1]), float(cum[i] / total)))
        return out

    # -- serialisation ------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-friendly form; counts stored sparse by bucket index."""
        sparse = {str(i): int(c) for i, c in enumerate(self.counts) if c}
        return {"edges": self.edges.tolist(), "counts": sparse}

    @classmethod
    def from_dict(cls, data: dict) -> "MergeableHistogram":
        edges = np.asarray(data["edges"], dtype=np.float64)
        counts = np.zeros(len(edges) + 1, dtype=np.int64)
        for key, value in data.get("counts", {}).items():
            counts[int(key)] = int(value)
        return cls(edges, counts)


#: Slowdown grid: 1 + geometric penalty buckets from 1e-5 (0.001%) to
#: 16 (17x slowdown), ~3% relative resolution. Shared by every shard of
#: a serving run so merges stay exact.
def slowdown_histogram() -> MergeableHistogram:
    """A fresh histogram on the canonical slowdown grid."""
    return MergeableHistogram(1.0 + np.geomspace(1e-5, 16.0, 481))
