"""Coverage for smaller surfaces: errors, hetero workloads, reports."""

import pytest

from repro import errors
from repro.core.engine import ScaleUpEngine
from repro.core.hetero import DEVICE_RATES, DeviceClass, mixed_workload


class TestErrorHierarchy:
    def test_all_library_errors_are_repro_errors(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                assert issubclass(obj, errors.ReproError) or \
                    obj is errors.ReproError

    def test_specific_parents(self):
        assert issubclass(errors.DeadlockError, errors.TransactionError)
        assert issubclass(errors.PageFaultError, errors.BufferPoolError)

    def test_catchable_as_base(self):
        with pytest.raises(errors.ReproError):
            raise errors.TopologyError("x")


class TestHeteroWorkload:
    def test_deterministic(self):
        a = mixed_workload(num_tasks=20, seed=2)
        b = mixed_workload(num_tasks=20, seed=2)
        assert a == b

    def test_fractions_respected(self):
        tasks = mixed_workload(num_tasks=1_000, ml_fraction=0.5,
                               compress_fraction=0.0, seed=3)
        ml = sum(1 for t in tasks if t.kind == "ml_infer")
        assert 0.4 < ml / 1_000 < 0.6
        assert not any(t.kind == "compress" for t in tasks)

    def test_arrivals_increase(self):
        tasks = mixed_workload(num_tasks=10, arrival_gap_ns=100.0)
        arrivals = [t.arrival_ns for t in tasks]
        assert arrivals == sorted(arrivals)

    def test_device_rate_table_shape(self):
        for klass in DeviceClass:
            assert klass in DEVICE_RATES
            assert all(rate > 0 for rate in DEVICE_RATES[klass].values())


class TestEngineGetPage:
    def test_get_page_faults_silently(self):
        engine = ScaleUpEngine.build(dram_pages=4, with_storage=False)
        page = engine.pool.get_page(3)
        assert page.page_id == 3
        # get_page installs residency but charges no time.
        assert engine.pool.clock.now == 0.0
        assert engine.pool.tier_of(3) is not None
