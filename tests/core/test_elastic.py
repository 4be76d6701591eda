"""Pooling and elasticity (Sec 3.2): stranding, warm spawn, migration."""

import pytest

from repro.core.elastic import ElasticCluster, PagePool, StrandingModel
from repro.errors import PoolingError
from repro.units import GIB
from tests.oracle.traces import Access, from_accesses


class TestStrandingModel:
    def _model(self):
        return StrandingModel(
            demands_bytes=[10 * GIB, 60 * GIB, 25 * GIB, 5 * GIB],
            per_server_dram=64 * GIB,
            base_dram=16 * GIB,
        )

    def test_stranded_bytes(self):
        model = self._model()
        expected = (54 + 4 + 39 + 59) * GIB
        assert model.stranded_bytes == expected

    def test_stranded_fraction_substantial(self):
        # Hyperscaler-like demand skew strands a large share (Sec 3.2).
        assert self._model().stranded_fraction > 0.5

    def test_pooling_saves_memory(self):
        model = self._model()
        assert model.pooled_total_bytes < model.provisioned_bytes
        assert model.savings_fraction > 0.3

    def test_unmet_demand(self):
        model = StrandingModel(
            demands_bytes=[100 * GIB], per_server_dram=64 * GIB,
            base_dram=16 * GIB,
        )
        assert model.unmet_bytes == 36 * GIB

    def test_uniform_demand_strands_little(self):
        model = StrandingModel(
            demands_bytes=[60 * GIB] * 8, per_server_dram=64 * GIB,
            base_dram=16 * GIB,
        )
        assert model.stranded_fraction < 0.1

    def test_empty_demands_rejected(self):
        with pytest.raises(PoolingError):
            StrandingModel(demands_bytes=[], per_server_dram=1,
                           base_dram=0)


class TestSlices:
    def test_carve_and_release(self):
        cluster = ElasticCluster(dataset_pages=100)
        slice_ = cluster.carve("e1", 1024 * 4096)
        assert cluster.pool_device.allocated_bytes == 1024 * 4096
        assert cluster.slice_of("e1") is slice_
        cluster.release("e1")
        assert cluster.pool_device.allocated_bytes == 0

    def test_double_carve_rejected(self):
        cluster = ElasticCluster(dataset_pages=100)
        cluster.carve("e1", 4096)
        with pytest.raises(PoolingError):
            cluster.carve("e1", 4096)

    def test_release_unknown_rejected(self):
        with pytest.raises(PoolingError):
            ElasticCluster(dataset_pages=10).release("ghost")


class TestWarmSpawn:
    def _trace(self, pages=200, ops=2_000):
        import random
        rng = random.Random(3)
        return [from_accesses([Access(page_id=rng.randrange(pages))
                               for _ in range(ops)])]

    def test_cold_engine_faults_everything(self):
        cluster = ElasticCluster(dataset_pages=200)
        engine, _spawn = cluster.spawn_engine("cold", local_pages=32,
                                              slice_pages=256)
        report = engine.run(self._trace())
        assert report.misses == 200

    def test_warm_engine_has_no_faults(self):
        cluster = ElasticCluster(dataset_pages=200)
        first, _ = cluster.spawn_engine("first", local_pages=32,
                                        slice_pages=256)
        first.run(self._trace())
        slice_ = cluster.detach_engine(first)
        assert len(slice_.resident_pages) > 0

        second, _ = cluster.spawn_engine("second", local_pages=32,
                                         warm_from=slice_)
        report = second.run(self._trace())
        assert report.misses < 50  # most pages adopted warm

    def test_warm_spawn_much_faster_end_to_end(self):
        cluster = ElasticCluster(dataset_pages=200)
        cold, _ = cluster.spawn_engine("cold", local_pages=32,
                                       slice_pages=256)
        r_cold = cold.run(self._trace())
        slice_ = cluster.detach_engine(cold)
        warm, _ = cluster.spawn_engine("warm", local_pages=32,
                                       warm_from=slice_)
        r_warm = warm.run(self._trace())
        assert r_cold.total_ns > 2 * r_warm.total_ns

    def test_spawn_time_is_attach_overhead(self):
        cluster = ElasticCluster(dataset_pages=50)
        _engine, spawn_ns = cluster.spawn_engine("e", slice_pages=64)
        assert spawn_ns == ElasticCluster.ATTACH_OVERHEAD_NS


class TestMigration:
    def test_pooled_migration_is_constant(self):
        cluster = ElasticCluster(dataset_pages=10)
        small = cluster.migration_time_ns(1 * GIB, pooled=True)
        large = cluster.migration_time_ns(100 * GIB, pooled=True)
        assert small == large  # a remap, independent of state size

    def test_copy_migration_scales_with_state(self):
        cluster = ElasticCluster(dataset_pages=10)
        small = cluster.migration_time_ns(1 * GIB, pooled=False)
        large = cluster.migration_time_ns(10 * GIB, pooled=False)
        assert large > 5 * small

    def test_pooled_orders_of_magnitude_cheaper(self):
        cluster = ElasticCluster(dataset_pages=10)
        pooled = cluster.migration_time_ns(8 * GIB, pooled=True)
        copied = cluster.migration_time_ns(8 * GIB, pooled=False)
        assert copied / pooled > 100


class TestPagePool:
    def test_lease_release_accounting(self):
        pool = PagePool(capacity_pages=100)
        assert pool.lease("a", 30)
        assert pool.lease("b", 50)
        assert pool.free_pages == 20
        assert pool.occupancy == 0.8
        assert pool.holds("a")
        # A departure returns exactly the pages it held.
        assert pool.release("a") == 30
        assert not pool.holds("a")
        assert pool.free_pages == 50
        assert pool.leased_pages + pool.free_pages == pool.capacity_pages

    def test_full_pool_refuses_without_raising(self):
        pool = PagePool(capacity_pages=10)
        assert pool.lease("a", 8)
        assert not pool.lease("b", 4)  # capacity miss, not an error
        assert pool.lease("b", 2)

    def test_double_release_raises(self):
        pool = PagePool(capacity_pages=10)
        pool.lease("a", 4)
        pool.release("a")
        with pytest.raises(PoolingError):
            pool.release("a")

    def test_double_lease_raises(self):
        pool = PagePool(capacity_pages=10)
        pool.lease("a", 2)
        with pytest.raises(PoolingError):
            pool.lease("a", 2)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(PoolingError):
            PagePool(capacity_pages=0)
        pool = PagePool(capacity_pages=10)
        with pytest.raises(PoolingError):
            pool.lease("a", 0)

    def test_resize_cannot_strand_leases(self):
        pool = PagePool(capacity_pages=10)
        pool.lease("a", 8)
        with pytest.raises(PoolingError):
            pool.resize(4)
        pool.resize(20)
        assert pool.free_pages == 12

    def test_occupancy_consistent_under_churn(self):
        # Interleaved arrivals and departures: the ledger never drifts
        # from a recomputed ground truth.
        pool = PagePool(capacity_pages=1_000)
        import random
        rng = random.Random(5)
        live: dict[int, int] = {}
        for tenant in range(300):
            pages = rng.randint(1, 40)
            if pool.lease(tenant, pages):
                live[tenant] = pages
            if live and rng.random() < 0.5:
                victim = rng.choice(sorted(live))
                assert pool.release(victim) == live.pop(victim)
            assert pool.leased_pages == sum(live.values())
            assert pool.free_pages == pool.capacity_pages - sum(live.values())
        assert pool.peak_leased_pages <= pool.capacity_pages
        assert pool.total_leases - pool.total_releases == len(live)
