"""Churn-driven admission against the pooled capacity."""

import numpy as np
import pytest

from repro.core.autoscale import ExpanderScaler
from repro.core.elastic import PagePool
from repro.errors import ConfigError
from repro.serving.churn import ChurnConfig, ChurnSimulator, assign_churn
from repro.serving.tenants import TenantTable
from repro.units import SECOND, ms, us


def make_table(working_sets, arrivals=None, lifetimes=None):
    """A hand-built columnar population with pinned churn columns."""
    n = len(working_sets)
    table = TenantTable(
        klass=np.zeros(n, np.int8),
        memory_share=np.full(n, 0.5),
        working_set_pages=np.asarray(working_sets, np.int64),
        theta=np.zeros(n, np.float64),
        read_ratio=np.full(n, 0.5),
        num_ops=np.full(n, 100, np.int64),
        think_ns=np.full(n, 1_000.0),
        seed=np.arange(n, dtype=np.int64),
    )
    if arrivals is not None:
        table.arrival_ns[:] = arrivals
    if lifetimes is not None:
        table.departure_ns[:] = table.arrival_ns + np.asarray(lifetimes)
    return table


class TestAssignChurn:
    def test_deterministic_and_ordered(self):
        cfg = ChurnConfig(arrival_rate_per_s=1_000.0, mean_lifetime_s=2.0,
                          seed=11)
        a = TenantTable.generate(500)
        b = TenantTable.generate(500)
        assign_churn(a, cfg)
        assign_churn(b, cfg)
        assert a.arrival_ns.tobytes() == b.arrival_ns.tobytes()
        assert a.departure_ns.tobytes() == b.departure_ns.tobytes()
        assert (np.diff(a.arrival_ns) >= 0).all()   # cumulative gaps
        assert (a.departure_ns > a.arrival_ns).all()

    def test_rates_land_near_their_means(self):
        cfg = ChurnConfig(arrival_rate_per_s=1_000.0, mean_lifetime_s=2.0)
        table = TenantTable.generate(5_000)
        assign_churn(table, cfg)
        gaps = np.diff(table.arrival_ns)
        assert np.isclose(gaps.mean(), SECOND / 1_000.0, rtol=0.1)
        lifetimes = table.departure_ns - table.arrival_ns
        assert np.isclose(lifetimes.mean(), 2.0 * SECOND, rtol=0.1)

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            ChurnConfig(arrival_rate_per_s=0.0)
        with pytest.raises(ConfigError):
            ChurnConfig(mean_lifetime_s=-1.0)


class TestAdmission:
    def test_uncontended_population_never_waits(self):
        table = make_table([10, 10, 10], arrivals=[ms(1), ms(2), ms(3)],
                           lifetimes=[ms(5), ms(5), ms(5)])
        pool = PagePool(100)
        report = ChurnSimulator(table, pool).run()
        assert report.admitted == 3
        assert report.departed == 3
        assert report.waited == 0
        assert report.peak_leased_pages == 30
        assert pool.leased_pages == 0   # every departure returned pages

    def test_full_pool_queues_until_departure(self):
        # Tenant 1 needs the pages tenant 0 holds; it is admitted only
        # at departure + reclaim, and the wait is accounted.
        table = make_table([80, 80], arrivals=[0.0, ms(1)],
                           lifetimes=[ms(10), ms(10)])
        pool = PagePool(100)
        sim = ChurnSimulator(table, pool, reclaim_ns=us(200.0))
        report = sim.run()
        assert report.admitted == 2
        assert report.waited == 1
        assert report.peak_queue == 1
        # Waited from its arrival at 1 ms to the release at
        # 10 ms + 200 us reclaim.
        expected_wait = ms(10) + us(200.0) - ms(1)
        assert report.wait_quantile(1.0) >= expected_wait * 0.9
        assert report.horizon_ns >= ms(20)

    def test_queue_is_strict_fifo(self):
        # The big head-of-line tenant blocks the small one behind it
        # even though the small one would fit: admission order never
        # depends on size.
        table = make_table([90, 60, 5],
                           arrivals=[0.0, ms(1), ms(2)],
                           lifetimes=[ms(10), ms(10), ms(10)])
        pool = PagePool(100)
        report = ChurnSimulator(table, pool).run()
        assert report.admitted == 3
        assert report.waited == 2   # both queued behind the 90-pager

    def test_oversized_tenant_rejected(self):
        table = make_table([500, 10], arrivals=[0.0, ms(1)],
                           lifetimes=[ms(5), ms(5)])
        report = ChurnSimulator(table, PagePool(100)).run()
        assert report.rejected == 1
        assert report.admitted == 1

    def test_empty_table_rejected(self):
        with pytest.raises(ConfigError):
            ChurnSimulator(make_table([]), PagePool(10)).run()

    def test_negative_reclaim_rejected(self):
        with pytest.raises(ConfigError):
            ChurnSimulator(make_table([1]), PagePool(10),
                           reclaim_ns=-1.0)

    @pytest.mark.parametrize("reclaim_ns", [np.nan, np.inf])
    def test_unbounded_reclaim_rejected(self, reclaim_ns):
        with pytest.raises(ConfigError):
            ChurnSimulator(make_table([1]), PagePool(10),
                           reclaim_ns=reclaim_ns)

    def test_no_caller_simulator(self):
        # The loop merges its own streams: a caller's queued events
        # would never fire, so there is no way to pass a simulator in.
        with pytest.raises(TypeError):
            ChurnSimulator(make_table([1]), PagePool(10), sim=None)


class TestBadColumns:
    """The merge loop trusts the churn columns, so the constructor
    checks them: unchecked, each case below would play silently to a
    meaningless report or die part-way through ``run``."""

    @staticmethod
    def churn(arrivals, departures):
        table = make_table([10, 10], arrivals=arrivals)
        table.departure_ns[:] = departures
        return ChurnSimulator(table, PagePool(100))

    def test_nan_arrival_refused(self):
        with pytest.raises(ConfigError, match="arrival_ns"):
            self.churn([0.0, np.nan], [ms(1), ms(2)])

    def test_infinite_departure_refused(self):
        with pytest.raises(ConfigError, match="departure_ns < inf"):
            self.churn([0.0, ms(1)], [ms(1), np.inf])

    def test_negative_lifetime_refused(self):
        with pytest.raises(ConfigError, match="arrival_ns <= departure_ns"):
            self.churn([0.0, ms(2)], [ms(1), ms(1)])

    @pytest.mark.parametrize("arrivals, departures", [
        ([-1.0, 0.0], [ms(1), ms(1)]),            # before the clock starts
        ([0.0, ms(1)], [ms(1), np.nan]),
        ([0.0, -np.inf], [ms(1), ms(1)]),
    ])
    def test_other_bad_columns_refused(self, arrivals, departures):
        with pytest.raises(ConfigError):
            self.churn(arrivals, departures)

    def test_zero_lifetime_is_valid(self):
        report = self.churn([0.0, ms(1)], [0.0, ms(1)]).run()
        assert report.departed == 2 and report.waited == 0


class TestElasticity:
    def test_backlog_grows_the_pool_then_drains(self):
        # Ten 50-page tenants against one 100-page expander: backlog
        # forces a second expander; once everyone leaves, the scaler
        # retires it again.
        table = make_table([50] * 4, arrivals=[0.0, ms(1), ms(2), ms(3)],
                           lifetimes=[ms(30)] * 4)
        scaler = ExpanderScaler(pages_per_expander=100, min_expanders=1,
                                max_expanders=4, cooldown_ns=us(1.0))
        pool = PagePool(scaler.capacity_pages)
        report = ChurnSimulator(table, pool, scaler=scaler).run()
        assert report.admitted == 4
        assert report.grows >= 1
        assert report.peak_leased_pages == 200
        assert report.shrinks >= 1
        assert report.final_capacity_pages == 100
        assert pool.capacity_pages == scaler.capacity_pages

    def test_generated_population_end_to_end(self):
        table = TenantTable.generate(300)
        assign_churn(table, ChurnConfig(arrival_rate_per_s=2_000.0,
                                        mean_lifetime_s=0.5))
        scaler = ExpanderScaler(pages_per_expander=1 << 22)
        pool = PagePool(scaler.capacity_pages)
        report = ChurnSimulator(table, pool, scaler=scaler).run()
        assert report.admitted + report.rejected == 300
        assert report.departed == report.admitted
        assert pool.leased_pages == 0
