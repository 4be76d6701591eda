"""Temperature trackers: engine-exact vs OS-sampled."""

import random

import pytest

from repro.core.temperature import ExactTracker, SampledTracker
from repro.errors import ConfigError


class TestExactTracker:
    def test_heat_accumulates(self):
        tracker = ExactTracker()
        for _ in range(5):
            tracker.record(1)
        assert tracker.heat(1) == pytest.approx(5.0)
        assert tracker.heat(2) == 0.0

    def test_hottest_and_coldest(self):
        tracker = ExactTracker()
        for page, count in ((1, 10), (2, 5), (3, 1)):
            for _ in range(count):
                tracker.record(page)
        assert tracker.hottest(2) == [1, 2]
        assert tracker.coldest(1) == [3]

    def test_decay_ages_heat(self):
        tracker = ExactTracker(decay=0.5, epoch_accesses=10)
        for _ in range(10):
            tracker.record(1)  # 10th access triggers aging
        assert tracker.heat(1) == pytest.approx(5.0)

    def test_decay_forgets_cold_pages(self):
        tracker = ExactTracker(decay=0.5, epoch_accesses=2)
        tracker.record(1)
        for _ in range(60):
            tracker.record(2)
        assert tracker.heat(1) == 0.0  # decayed below threshold

    def test_scan_discount(self):
        """The engine knows scans: a swept page stays colder than a
        point-accessed one (the OS cannot make this distinction)."""
        tracker = ExactTracker(scan_weight=0.1)
        tracker.record(1)
        tracker.record(2, is_scan=True)
        assert tracker.heat(2) == pytest.approx(0.1)
        assert tracker.heat(1) > tracker.heat(2)

    def test_forget(self):
        tracker = ExactTracker()
        tracker.record(1)
        tracker.forget(1)
        assert tracker.heat(1) == 0.0

    def test_invalid_parameters(self):
        with pytest.raises(ConfigError):
            ExactTracker(decay=0.0)
        with pytest.raises(ConfigError):
            ExactTracker(epoch_accesses=0)
        with pytest.raises(ConfigError):
            ExactTracker(scan_weight=-1.0)

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_non_finite_scan_weight_rejected(self, weight):
        # NaN passes a plain `< 0` guard, and one scan record would
        # then leave the page's heat at nan (inf: inf).
        with pytest.raises(ConfigError):
            ExactTracker(scan_weight=weight)
        ExactTracker(scan_weight=0.0).record(1, is_scan=True)


class TestSampledTracker:
    def test_sampling_misses_most_accesses(self):
        tracker = SampledTracker(sample_rate=0.01, seed=1)
        for _ in range(1_000):
            tracker.record(1)
        # ~10 expected observations, far below the exact count.
        assert 0 < tracker.heat(1) < 100

    def test_full_sampling_equals_exact(self):
        tracker = SampledTracker(sample_rate=1.0)
        for _ in range(50):
            tracker.record(1)
        assert tracker.heat(1) == pytest.approx(50.0)

    def test_scan_blindness(self):
        """The OS cannot distinguish scans: is_scan changes nothing."""
        t1 = SampledTracker(sample_rate=1.0, seed=3)
        t2 = SampledTracker(sample_rate=1.0, seed=3)
        for _ in range(20):
            t1.record(1, is_scan=True)
            t2.record(1, is_scan=False)
        assert t1.heat(1) == t2.heat(1)

    def test_hot_pages_still_rank_first(self):
        tracker = SampledTracker(sample_rate=0.2, seed=7)
        for _ in range(2_000):
            tracker.record(1)
        for _ in range(100):
            tracker.record(2)
        assert tracker.hottest(1) == [1]

    def test_deterministic_with_seed(self):
        t1 = SampledTracker(sample_rate=0.5, seed=42)
        t2 = SampledTracker(sample_rate=0.5, seed=42)
        for _ in range(100):
            t1.record(1)
            t2.record(1)
        assert t1.heat(1) == t2.heat(1)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigError):
            SampledTracker(sample_rate=0.0)
        with pytest.raises(ConfigError):
            SampledTracker(decay=1.5)

    def test_forget(self):
        tracker = SampledTracker(sample_rate=1.0)
        tracker.record(1)
        tracker.forget(1)
        assert tracker.heat(1) == 0.0

    def test_hottest_above_a_heat_floor_is_the_same_prefix(self):
        tracker = SampledTracker(sample_rate=1.0, decay=1.0)
        rng = random.Random(3)
        for _ in range(400):
            tracker.record(int(rng.paretovariate(1.1)) % 50)
        full = tracker.hottest(50)
        for floor in (0.0, 1.0, 2.0, 7.5, 1e9):
            want = [p for p in full if tracker.heat(p) >= floor]
            assert tracker.hottest(50, floor) == want
            assert tracker.hottest(5, floor) == want[:5]
