"""Scale-up shared-memory engine vs scale-out 2PC baseline (Sec 3.3)."""

import pytest

from repro.core.scaleout import ScaleOutConfig, ScaleOutEngine
from repro.core.shared import SharedEngineConfig, SharedRackEngine
from repro.errors import ConfigError
from repro.workloads.tpcc import TPCCLite


def txn_batch(remote_probability, count=600, warehouses=8, seed=5):
    gen = TPCCLite(num_warehouses=warehouses,
                   remote_probability=remote_probability, seed=seed)
    return list(gen.transactions(count))


class TestSharedRackEngine:
    def test_no_distributed_transactions_ever(self):
        engine = SharedRackEngine()
        report = engine.run(txn_batch(0.5))
        assert report.distributed_txns > 0  # txns marked remote...
        assert report.remote_ops == 0       # ...but no remote ops paid

    def test_fabric_latency_from_topology(self):
        engine = SharedRackEngine()
        # GFAM through two switches: inside the Pond envelope.
        assert 200.0 <= engine.fabric_read_ns <= 400.0

    def test_lock_cas_is_one_fabric_round(self):
        engine = SharedRackEngine()
        assert engine.lock_acquire_ns() == engine.fabric_read_ns

    def test_release_is_local(self):
        engine = SharedRackEngine()
        assert engine.lock_release_ns() < engine.lock_acquire_ns()

    def test_cache_hit_rate_lowers_read_cost(self):
        cold = SharedRackEngine(SharedEngineConfig(cache_hit_rate=0.0))
        warm = SharedRackEngine(SharedEngineConfig(cache_hit_rate=0.9))
        assert warm.data_read_ns() < cold.data_read_ns()

    def test_throughput_scales_with_hosts(self):
        # Plenty of warehouses so lock contention (payments write the
        # warehouse row) does not cap parallelism before threads do.
        small = SharedRackEngine(SharedEngineConfig(num_hosts=2))
        large = SharedRackEngine(SharedEngineConfig(num_hosts=8))
        r_small = small.run(txn_batch(0.1, count=1_500, warehouses=64))
        r_large = large.run(txn_batch(0.1, count=1_500, warehouses=64))
        assert r_large.throughput_tps > 2 * r_small.throughput_tps

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            SharedEngineConfig(num_hosts=0)
        with pytest.raises(ConfigError):
            SharedEngineConfig(cache_hit_rate=1.5)

    @pytest.mark.parametrize("field, value", [
        ("log_batch", 0), ("log_batch", -2), ("log_batch", 2.0),
        ("num_hosts", 2.5), ("threads_per_host", True),
        ("llc_hit_ns", -1.0), ("llc_hit_ns", float("nan")),
        ("llc_hit_ns", float("inf")), ("cache_hit_rate", float("nan")),
    ])
    def test_bad_field_refused_at_construction(self, field, value):
        with pytest.raises(ConfigError, match=field):
            SharedEngineConfig(**{field: value})


class TestLockTableCoherence:
    """Sec 3.3: measured coherency traffic of the shared lock table."""

    def _txns(self):
        gen = TPCCLite(num_warehouses=8, remote_probability=0.0,
                       seed=9)
        return list(gen.transactions(800))

    def test_round_robin_assignment_ping_pongs(self):
        engine = SharedRackEngine(SharedEngineConfig(num_hosts=4))
        stats = engine.measure_lock_table_coherence(self._txns())
        # Hot lock words (warehouse/district rows) bounce hosts.
        assert stats.invalidations_per_write > 0.05

    def test_affinity_scheduling_collapses_traffic(self):
        engine = SharedRackEngine(SharedEngineConfig(num_hosts=4))
        txns = self._txns()
        round_robin = engine.measure_lock_table_coherence(
            list(txns), assign_by_warehouse=False)
        affinity = engine.measure_lock_table_coherence(
            list(txns), assign_by_warehouse=True)
        # Affinity removes warehouse-local ping-pong; the residual
        # traffic is the genuinely shared item table plus lock-line
        # false sharing, so the drop is real but not total.
        assert affinity.invalidations_per_write < \
            0.8 * round_robin.invalidations_per_write

    def test_single_host_has_no_invalidations(self):
        engine = SharedRackEngine(SharedEngineConfig(num_hosts=1))
        stats = engine.measure_lock_table_coherence(self._txns())
        assert stats.invalidations_sent == 0


class TestScaleOutEngine:
    @pytest.mark.parametrize("field, value", [
        ("log_batch", 0), ("log_batch", -2), ("log_batch", 8.0),
        ("num_nodes", 0), ("num_nodes", 2.5), ("threads_per_node", True),
        ("local_read_ns", -5.0), ("local_write_ns", float("nan")),
        ("local_lock_ns", float("inf")), ("log_force_ns", -1e-9),
        ("rpc_payload_bytes", -128),
    ])
    def test_bad_field_refused_at_construction(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ScaleOutConfig(**{field: value})

    def test_rpc_memo_replays_fabric_counters(self):
        # One RPC per remote record plus one per remote participant
        # (the 2PC round trip), each counted on the fabric as one write
        # out and one read back, memoised or not.
        engine = ScaleOutEngine(ScaleOutConfig(num_nodes=4))
        txns = txn_batch(0.3)
        report = engine.run(txns)
        remote_nodes = sum(len(engine.participants(t)) - 1 for t in txns)
        calls = report.remote_ops - remote_nodes
        stats = engine.fabric.stats
        assert calls > 0
        assert (stats.reads, stats.writes, stats.bytes) == (
            calls, calls, calls * 2 * 128)

    def test_partitioning_by_warehouse(self):
        engine = ScaleOutEngine(ScaleOutConfig(num_nodes=4))
        from repro.workloads.tpcc import RecordOp, Transaction
        txn = Transaction(1, "new_order", 2, ops=[
            RecordOp("stock", 5, 0), RecordOp("item", -1, 0)])
        # stock of warehouse 5 lives on node 1; item is replicated.
        assert engine.participants(txn) == {2, 1}

    def test_single_home_txn_one_participant(self):
        engine = ScaleOutEngine(ScaleOutConfig(num_nodes=4))
        batch = txn_batch(0.0)
        for txn in batch[:50]:
            assert len(engine.participants(txn)) == 1

    def test_remote_txns_pay_remote_ops(self):
        engine = ScaleOutEngine(ScaleOutConfig(num_nodes=4))
        report = engine.run(txn_batch(0.3))
        assert report.remote_ops > 0
        assert report.distributed_txns > 0

    def test_local_only_has_no_remote_ops(self):
        engine = ScaleOutEngine(ScaleOutConfig(num_nodes=4))
        report = engine.run(txn_batch(0.0))
        assert report.remote_ops == 0

    def test_distribution_hurts_throughput(self):
        local = ScaleOutEngine(ScaleOutConfig(num_nodes=4)).run(
            txn_batch(0.0))
        distributed = ScaleOutEngine(ScaleOutConfig(num_nodes=4)).run(
            txn_batch(0.3))
        assert local.throughput_tps > 1.5 * distributed.throughput_tps


class TestMultiRackScaleUp:
    """Sec 3.3: the shared engine spanning a small number of racks."""

    def test_cross_rack_engine_still_works(self):
        from repro.sim.topology import RackTopology
        rack = RackTopology.multi_rack(racks=2, hosts_per_rack=2)
        engine = SharedRackEngine(
            SharedEngineConfig(num_hosts=4), rack=rack)
        report = engine.run(txn_batch(0.2))
        assert report.throughput_tps > 0
        assert report.remote_ops == 0  # still no "remote" concept

    def test_multi_rack_beats_scaleout_under_distribution(self):
        from repro.sim.topology import RackTopology
        txns = txn_batch(0.3)
        rack = RackTopology.multi_rack(racks=2, hosts_per_rack=2)
        up = SharedRackEngine(
            SharedEngineConfig(num_hosts=4), rack=rack).run(txns)
        out = ScaleOutEngine(ScaleOutConfig(num_nodes=4)).run(txns)
        assert up.throughput_tps > out.throughput_tps


class TestTheCrossover:
    """The paper's Sec 3.3 argument as a measurable fact."""

    def test_scaleout_wins_when_nothing_is_distributed(self):
        up = SharedRackEngine(SharedEngineConfig(num_hosts=4))
        out = ScaleOutEngine(ScaleOutConfig(num_nodes=4))
        r_up = up.run(txn_batch(0.0))
        r_out = out.run(txn_batch(0.0))
        assert r_out.throughput_tps > r_up.throughput_tps

    def test_scaleup_wins_under_heavy_distribution(self):
        up = SharedRackEngine(SharedEngineConfig(num_hosts=4))
        out = ScaleOutEngine(ScaleOutConfig(num_nodes=4))
        r_up = up.run(txn_batch(0.3))
        r_out = out.run(txn_batch(0.3))
        assert r_up.throughput_tps > r_out.throughput_tps

    def test_scaleup_is_insensitive_to_distribution(self):
        up = SharedRackEngine(SharedEngineConfig(num_hosts=4))
        r_lo = up.run(txn_batch(0.0))
        up2 = SharedRackEngine(SharedEngineConfig(num_hosts=4))
        r_hi = up2.run(txn_batch(0.3))
        ratio = r_lo.throughput_tps / r_hi.throughput_tps
        assert 0.8 < ratio < 1.25


@pytest.mark.parametrize("build", [
    lambda: SharedRackEngine(SharedEngineConfig(num_hosts=4)),
    lambda: ScaleOutEngine(ScaleOutConfig(num_nodes=4)),
], ids=["shared", "scaleout"])
def test_a_second_run_schedules_against_its_own_holds(build):
    """Each run starts from an empty lock table: a repeat of the same
    stream on one engine reports what the first run did, and the
    executor's snapshot describes the last run."""
    engine = build()
    txns = txn_batch(0.1, count=1_500)
    first = engine.run(txns)
    waits = engine.executor.snapshot()["lock_waits"]
    second = engine.run(txns)
    assert second == first
    assert engine.executor.snapshot()["lock_waits"] == waits
