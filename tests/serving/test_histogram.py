"""Exact mergeable histograms: the byte-identity workhorse."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.serving.histogram import MergeableHistogram, slowdown_histogram


def small_hist() -> MergeableHistogram:
    return MergeableHistogram(np.array([1.0, 2.0, 3.0]))


class TestBuckets:
    def test_bucket_semantics(self):
        # Bucket 0: <= edges[0]; bucket i: (edges[i-1], edges[i]];
        # overflow: > edges[-1]. Edge values land in the lower bucket.
        h = small_hist()
        h.add_many(np.array([0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 10.0]))
        assert h.counts.tolist() == [2, 2, 2, 1]
        assert h.total == 7

    def test_add_matches_add_many(self):
        # Interior values, every edge itself, underflow, overflow,
        # both infinities and NaN: one value at a time lands where the
        # vectorised fold puts it.
        values = [0.1, 1.7, 2.2, 9.0, 1.0, 2.0, 3.0, -5.0, 3.0000001,
                  np.float64(2.5), float("inf"), float("-inf"),
                  float("nan")]
        for v in values:
            a, b = small_hist(), small_hist()
            a.add(v)
            b.add_many(np.array([v]))
            assert a.counts.tolist() == b.counts.tolist(), v
        a, b = small_hist(), small_hist()
        for v in values:
            a.add(v)
        b.add_many(np.array(values))
        assert np.array_equal(a.counts, b.counts)
        assert a.total == len(values)
        # The cached edge list follows copies and round trips.
        c = MergeableHistogram.from_dict(a.copy().to_dict())
        c.add(2.0)
        assert c.counts[1] == a.counts[1] + 1

    def test_invalid_edges_rejected(self):
        with pytest.raises(ConfigError):
            MergeableHistogram(np.array([1.0]))
        with pytest.raises(ConfigError):
            MergeableHistogram(np.array([1.0, 1.0, 2.0]))

    def test_invalid_counts_rejected(self):
        with pytest.raises(ConfigError):
            MergeableHistogram(np.array([1.0, 2.0]), np.array([1, 2]))
        with pytest.raises(ConfigError):
            MergeableHistogram(np.array([1.0, 2.0]),
                               np.array([1, -1, 2]))


class TestMerge:
    def test_merge_is_exact_and_order_invariant(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(0.0, 5.0, size=10_000)
        whole = small_hist()
        whole.add_many(values)
        # Any partition, merged in any order, folds to identical bytes.
        parts = [small_hist() for _ in range(7)]
        for i, part in enumerate(parts):
            part.add_many(values[i::7])
        forward = parts[0].copy()
        for part in parts[1:]:
            forward.merge(part)
        backward = parts[-1].copy()
        for part in reversed(parts[:-1]):
            backward.merge(part)
        assert forward.counts.tobytes() == whole.counts.tobytes()
        assert backward.counts.tobytes() == whole.counts.tobytes()

    def test_merge_requires_identical_edges(self):
        with pytest.raises(ConfigError):
            small_hist().merge(
                MergeableHistogram(np.array([1.0, 2.0])))


class TestQuantiles:
    def test_quantile_returns_bucket_upper_edge(self):
        h = small_hist()
        h.add_many(np.array([0.5, 1.5, 2.5, 10.0]))
        assert h.quantile(0.0) == 1.0     # underflow bucket
        assert h.quantile(0.5) == 2.0     # rank 2 in (1, 2]
        assert h.quantile(0.75) == 3.0
        assert h.quantile(1.0) == float("inf")  # overflow bucket

    def test_quantile_validation(self):
        h = small_hist()
        with pytest.raises(ConfigError):
            h.quantile(0.5)   # empty
        h.add(1.5)
        with pytest.raises(ConfigError):
            h.quantile(1.5)

    def test_count_at_or_below_is_exact_on_grid_edges(self):
        h = small_hist()
        h.add_many(np.array([0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 10.0]))
        assert h.count_at_or_below(1.0) == 2
        assert h.count_at_or_below(2.0) == 4
        assert h.count_at_or_below(3.0) == 6

    def test_cdf_is_cumulative(self):
        h = small_hist()
        h.add_many(np.array([0.5, 1.5, 2.5, 10.0]))
        cdf = h.cdf()
        fractions = [f for _edge, f in cdf]
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0


class TestSerialisation:
    def test_dict_round_trip(self):
        h = slowdown_histogram()
        h.add_many(1.0 + np.geomspace(1e-4, 8.0, 1_000))
        back = MergeableHistogram.from_dict(h.to_dict())
        assert np.array_equal(back.edges, h.edges)
        assert np.array_equal(back.counts, h.counts)

    def test_sparse_counts(self):
        h = slowdown_histogram()
        h.add(1.5)
        assert len(h.to_dict()["counts"]) == 1
