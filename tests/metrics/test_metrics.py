"""Streaming stats and histograms."""

import math

import pytest

from repro.metrics.stats import Histogram, StreamingStats, percentile


class TestPercentile:
    def test_median(self):
        assert percentile([1, 2, 3, 4, 5], 0.5) == 3

    def test_extremes(self):
        data = [5.0, 1.0, 3.0]
        assert percentile(data, 0.0) == 1.0
        assert percentile(data, 1.0) == 5.0

    def test_interpolates(self):
        assert percentile([0.0, 10.0], 0.25) == pytest.approx(2.5)

    def test_single_sample(self):
        assert percentile([7.0], 0.9) == 7.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)


class TestStreamingStats:
    def test_mean_and_total(self):
        stats = StreamingStats()
        for x in (1.0, 2.0, 3.0):
            stats.add(x)
        assert stats.mean == pytest.approx(2.0)
        assert stats.total == pytest.approx(6.0)
        assert stats.count == 3

    def test_min_max(self):
        stats = StreamingStats()
        for x in (5.0, -1.0, 3.0):
            stats.add(x)
        assert stats.min == -1.0
        assert stats.max == 5.0

    def test_variance_matches_numpy(self):
        import numpy as np
        data = [1.5, 2.5, 9.0, -4.0, 0.0, 3.3]
        stats = StreamingStats()
        for x in data:
            stats.add(x)
        assert stats.variance == pytest.approx(np.var(data))
        assert stats.std == pytest.approx(np.std(data))

    def test_variance_of_singleton_is_zero(self):
        stats = StreamingStats()
        stats.add(5.0)
        assert stats.variance == 0.0

    def test_merge_equals_sequential(self):
        a, b, combined = StreamingStats(), StreamingStats(), StreamingStats()
        for x in (1.0, 2.0, 3.0):
            a.add(x)
            combined.add(x)
        for x in (10.0, 20.0):
            b.add(x)
            combined.add(x)
        a.merge(b)
        assert a.count == combined.count
        assert a.mean == pytest.approx(combined.mean)
        assert a.variance == pytest.approx(combined.variance)
        assert a.min == combined.min
        assert a.max == combined.max

    def test_merge_into_empty(self):
        a, b = StreamingStats(), StreamingStats()
        b.add(4.0)
        a.merge(b)
        assert a.count == 1
        assert a.mean == 4.0

    def test_merge_empty_is_noop(self):
        a = StreamingStats()
        a.add(1.0)
        a.merge(StreamingStats())
        assert a.count == 1


class TestHistogram:
    def test_counts(self):
        hist = Histogram()
        for x in (1.0, 10.0, 100.0):
            hist.add(x)
        assert hist.count == 3
        assert len(hist) == 3

    def test_quantile_bounds_relative_error(self):
        hist = Histogram(growth=1.25)
        values = [float(x) for x in range(1, 2_000)]
        for x in values:
            hist.add(x)
        true_p99 = percentile(values, 0.99)
        approx = hist.quantile(0.99)
        assert abs(approx - true_p99) / true_p99 < 0.3

    def test_quantile_monotone(self):
        hist = Histogram()
        for x in range(1, 1_000):
            hist.add(float(x))
        assert hist.quantile(0.5) <= hist.quantile(0.9) \
            <= hist.quantile(0.999)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            Histogram().add(0.0)

    def test_quantile_of_empty_rejected(self):
        with pytest.raises(ValueError):
            Histogram().quantile(0.5)

    def test_wide_range_handled(self):
        hist = Histogram()
        hist.add(80.0)        # DRAM hit
        hist.add(4_000_000.0)  # disk fault
        assert hist.quantile(1.0) >= 4_000_000.0 * 0.8
        assert not math.isinf(hist.stats.mean)

