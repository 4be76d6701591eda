"""Temperature trackers: engine-exact vs OS-sampled."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def three_step_age(tracker):
    """The aging the tracker used to do: decay, a threshold mask, the
    mask folded into membership, a masked store of 0.0."""
    harr = tracker._harr
    np.multiply(harr, tracker.decay, out=harr)
    keep = harr > 1e-6
    np.logical_and(tracker._present, keep, out=tracker._present)
    harr[~tracker._present] = 0.0


@settings(max_examples=200, deadline=None)
@given(scan_weight=st.sampled_from([0.0, 0.1, 1.0]),
       decay=st.sampled_from([0.5, 0.25, 0.9]),
       steps=st.lists(st.tuples(
           st.sampled_from(["run", "scan", "forget", "age"]),
           st.lists(st.integers(0, 40), min_size=1, max_size=80)),
           min_size=1, max_size=40))
def test_age_is_the_three_step_aging(scan_weight, decay, steps):
    """Aging as two in-place ufuncs is bit-identical to the three-step
    aging, on rows a scan weight of 0.0 made present at heat 0.0, on
    forgotten rows, and on heats decayed through the 1e-6 floor (an
    ``age`` step runs up to 40 epochs back to back)."""
    new = ExactTracker(decay=decay, scan_weight=scan_weight,
                       epoch_accesses=10**9)
    old = ExactTracker(decay=decay, scan_weight=scan_weight,
                       epoch_accesses=10**9)
    for kind, pids in steps:
        for tracker in (new, old):
            if kind == "forget":
                for pid in pids:
                    tracker.forget(pid)
            elif kind == "age":
                for _ in range(len(pids) // 2):
                    if tracker is new:
                        tracker._age()
                    else:
                        three_step_age(tracker)
            else:
                tracker.record_batch(np.array(pids, dtype=np.int64), 0,
                                     len(pids), is_scan=kind == "scan")
        assert new._harr.tobytes() == old._harr.tobytes()
        assert np.array_equal(new._present, old._present)
        assert new._heat == old._heat
