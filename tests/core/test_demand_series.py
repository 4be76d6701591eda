"""The Pond pooling-fraction curve (DemandSeries)."""

import pytest

from repro.core.elastic import DemandSeries
from repro.errors import PoolingError


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(PoolingError):
            DemandSeries(series=[])
        with pytest.raises(PoolingError):
            DemandSeries(series=[[]])

    def test_ragged_rejected(self):
        with pytest.raises(PoolingError):
            DemandSeries(series=[[1, 2], [1]])

    def test_diurnal_shape(self):
        d = DemandSeries.diurnal(servers=8, steps=24)
        assert len(d.series) == 8
        assert all(len(s) == 24 for s in d.series)
        assert all(v > 0 for s in d.series for v in s)

    def test_diurnal_deterministic(self):
        a = DemandSeries.diurnal(seed=3)
        b = DemandSeries.diurnal(seed=3)
        assert a.series == b.series


class TestPeaks:
    def test_anticorrelated_demands_save_most(self):
        # Two servers perfectly out of phase: aggregate is flat.
        d = DemandSeries(series=[[10, 0, 10, 0], [0, 10, 0, 10]])
        assert d.sum_of_peaks == 20
        assert d.peak_of_sum == 10
        assert d.savings_at(1.0) == pytest.approx(0.5)

    def test_correlated_demands_save_nothing(self):
        d = DemandSeries(series=[[10, 0], [10, 0]])
        assert d.peak_of_sum == d.sum_of_peaks
        assert d.savings_at(1.0) == 0.0

    def test_savings_linear_in_fraction(self):
        d = DemandSeries(series=[[10, 0, 10, 0], [0, 10, 0, 10]])
        assert d.savings_at(0.5) == pytest.approx(0.25)
        assert d.savings_at(0.1) == pytest.approx(0.05)

    def test_invalid_fraction(self):
        d = DemandSeries(series=[[1]])
        with pytest.raises(PoolingError):
            d.savings_at(1.5)


class TestPondShape:
    def test_curve_monotone(self):
        d = DemandSeries.diurnal()
        savings = [d.savings_at(f)
                   for f in (0.0, 0.1, 0.25, 0.5, 0.75, 1.0)]
        assert savings == sorted(savings)
        assert savings[0] == 0.0

    def test_pond_range_at_half_pool(self):
        """Pond reports mid-single-digit to ~10% DRAM reduction for
        realistic pool fractions; the diurnal fleet lands there."""
        d = DemandSeries.diurnal()
        assert 0.05 < d.savings_at(0.5) < 0.25
