"""Sharded streaming executor: shard invariance, kernels, metrics."""

from dataclasses import fields

import pytest

from repro.errors import ConfigError
from repro.serving.executor import (
    PENALTY_THRESHOLDS,
    ServingConfig,
    bucket_grid,
    measure_buckets,
    run_serving,
)
from repro.serving.tenants import CLASS_NAMES, TenantTable
from repro.workloads.cloudmix import (
    THETA_CHOICES,
    WORKING_SET_CHOICES,
    CloudWorkload,
)

# Small representative traces: kernels are measured once per module
# and shared across tests (they are pure functions of the config).
CFG = ServingConfig(rep_ops=300)


@pytest.fixture(scope="module")
def kernels():
    return measure_buckets(CFG)


class TestKernels:
    def test_grid_covers_every_bucket(self):
        grid = bucket_grid()
        assert len(grid) == len(WORKING_SET_CHOICES) * len(THETA_CHOICES)
        assert len(set(grid)) == len(grid)

    def test_cxl_demand_exceeds_dram(self, kernels):
        for k in kernels:
            assert k.d_cxl_ns > k.d_dram_ns > 0

    def test_kernels_deterministic(self, kernels):
        again = measure_buckets(CFG)
        assert [(k.d_dram_ns, k.d_cxl_ns, k.d_scaleout_ns)
                for k in kernels] == \
               [(k.d_dram_ns, k.d_cxl_ns, k.d_scaleout_ns)
                for k in again]

    def test_lanes_share_read_only_blocks(self, kernels, monkeypatch):
        # measure_buckets hands each representative's blocks to all
        # three lanes; with every column read-only, a lane that wrote
        # into one would raise, and the kernels must not move.
        trace_blocks = CloudWorkload.trace_blocks

        def frozen(workload, *args, **kwargs):
            for block in trace_blocks(workload, *args, **kwargs):
                for column in fields(block):
                    getattr(block, column.name).flags.writeable = False
                yield block

        monkeypatch.setattr(CloudWorkload, "trace_blocks", frozen)
        assert measure_buckets(CFG) == kernels

    def test_remote_fraction_moves_scaleout_demand(self):
        near = measure_buckets(ServingConfig(rep_ops=300,
                                             remote_fraction=0.02))
        far = measure_buckets(ServingConfig(rep_ops=300,
                                            remote_fraction=0.6))
        assert all(f.d_scaleout_ns > n.d_scaleout_ns
                   for n, f in zip(near, far))


class TestShardInvariance:
    def test_any_shard_count_folds_to_identical_bytes(self, kernels):
        table = TenantTable.generate(1_003)
        reference = run_serving(table, CFG, buckets=kernels)
        for shards, chunk_rows in ((4, 65_536), (7, 64), (16, 13)):
            cfg = ServingConfig(rep_ops=CFG.rep_ops, shards=shards,
                                chunk_rows=chunk_rows)
            report = run_serving(table, cfg, buckets=kernels)
            for baseline in ("cxl", "scaleout"):
                assert (report.hist[baseline].counts.tobytes()
                        == reference.hist[baseline].counts.tobytes())
                assert (report.threshold_counts[baseline].tobytes()
                        == reference.threshold_counts[baseline].tobytes())
            assert report.metrics() == reference.metrics()

    def test_class_totals_partition_population(self, kernels):
        table = TenantTable.generate(500)
        report = run_serving(table, CFG, buckets=kernels)
        assert int(report.class_totals.sum()) == 500


class TestReport:
    def test_metrics_shape(self, kernels):
        report = run_serving(TenantTable.generate(400), CFG,
                             buckets=kernels)
        metrics = report.metrics()
        assert metrics["tenants"] == 400
        for baseline in ("cxl", "scaleout"):
            entry = metrics[baseline]
            assert 1.0 <= entry["p50"] <= entry["p99"] <= entry["p999"]
            assert 0.0 <= entry["share_under_1pct"] \
                <= entry["share_under_5pct"] \
                <= entry["share_under_25pct"] <= 1.0
            for name in CLASS_NAMES:
                assert f"{name}_share_under_1pct" in entry
        assert len(metrics["buckets"]) == len(bucket_grid())

    def test_compute_bound_tenants_barely_penalised(self, kernels):
        # The Pond shape: think-time-dominated tenants sit far inside
        # the <1% penalty band; the population as a whole does not.
        report = run_serving(TenantTable.generate(2_000), CFG,
                             buckets=kernels)
        compute_bound = CLASS_NAMES.index("compute_bound")
        assert report.share_under("cxl", 0.01, klass=compute_bound) > 0.8
        assert report.share_under("cxl", 0.01) < 0.5

    def test_share_under_requires_grid_threshold(self, kernels):
        report = run_serving(TenantTable.generate(50), CFG,
                             buckets=kernels)
        assert 0.123 not in PENALTY_THRESHOLDS
        with pytest.raises(ValueError):
            report.share_under("cxl", 0.123)


class TestValidation:
    def test_empty_table_rejected(self, kernels):
        table = TenantTable.generate(10).shard(0, 100)  # empty view
        assert len(table) == 0
        with pytest.raises(ConfigError):
            run_serving(table, CFG, buckets=kernels)

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            ServingConfig(shards=0)
        with pytest.raises(ConfigError):
            ServingConfig(chunk_rows=0)
        with pytest.raises(ConfigError):
            ServingConfig(rep_ops=0)
        with pytest.raises(ConfigError):
            ServingConfig(remote_fraction=1.5)
