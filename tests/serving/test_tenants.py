"""Columnar tenant table: identity with the object generator, shards."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.harness.scenario import derive_seed
from repro.serving.tenants import COLUMNS, TenantTable
from repro.workloads.cloudmix import generate_population


class TestIdentity:
    def test_rows_equal_generate_population_at_158(self):
        # The lossless adapter contract: every row materialises to the
        # exact CloudWorkload the object generator would have built.
        table = TenantTable.generate(158)
        objects = generate_population(158)
        for i, expected in enumerate(objects):
            assert table.workload(i) == expected

    def test_rows_equal_at_other_counts(self):
        for count in (1, 7, 400):
            table = TenantTable.generate(count)
            objects = generate_population(count)
            assert [w for w in table.workloads()] == objects

    def test_per_cell_seeds_fold_into_int64(self):
        # derive_seed returns up to 63 bits; seed * 1_000 + index used
        # to overflow int64 (OverflowError), so an a8 sweep with
        # per-cell seeds could not run. The fold is deterministic and
        # the two generators still agree row for row.
        seed = derive_seed(11, "a8.pondscale/x")
        assert seed * 1_000 > 2**63
        table = TenantTable.generate(count=10, seed=seed)
        objects = generate_population(count=10, seed=seed)
        assert [w for w in table.workloads()] == objects
        assert np.array_equal(
            table.seed, TenantTable.generate(count=10, seed=seed).seed)
        assert table.seed.min() >= 0
        assert np.array_equal(np.diff(table.seed), np.ones(9))
        list(objects[0].trace_blocks(block_ops=500))

    def test_seeds_that_fit_are_unchanged(self):
        for seed in (7, 0, -5, (2**63 - 10) // 1_000):
            assert TenantTable.generate(count=10, seed=seed).seed.tolist() \
                == [seed * 1_000 + i for i in range(10)]

    def test_from_workloads_round_trip(self):
        table = TenantTable.generate(97, seed=13)
        packed = TenantTable.from_workloads(generate_population(97, seed=13))
        for name, _dtype in COLUMNS:
            assert np.array_equal(getattr(table, name),
                                  getattr(packed, name)), name

    def test_column_dtypes(self):
        table = TenantTable.generate(10)
        for name, dtype in COLUMNS:
            assert getattr(table, name).dtype == np.dtype(dtype), name


class TestShape:
    def test_len_and_nbytes(self):
        table = TenantTable.generate(1_000)
        assert len(table) == 1_000
        # The whole point: well under 100 bytes per tenant, so 10^6
        # tenants stay comfortably inside a 1 GiB cell.
        assert table.nbytes / len(table) < 100

    def test_default_presence_columns(self):
        table = TenantTable.generate(5)
        assert (table.arrival_ns == 0.0).all()
        assert np.isinf(table.departure_ns).all()

    def test_mismatched_column_length_rejected(self):
        cols = TenantTable.generate(4).columns()
        cols["theta"] = cols["theta"][:2]
        with pytest.raises(ConfigError):
            TenantTable(**cols)

    def test_row_index_out_of_range(self):
        table = TenantTable.generate(3)
        with pytest.raises(ConfigError):
            table.workload(3)
        with pytest.raises(ConfigError):
            table.workload(-1)


class TestShards:
    def test_shards_partition_the_table(self):
        table = TenantTable.generate(101)
        shards = [table.shard(i, 7) for i in range(7)]
        assert sum(len(s) for s in shards) == len(table)
        rebuilt = np.concatenate([s.klass for s in shards])
        assert np.array_equal(rebuilt, table.klass)

    def test_shards_are_zero_copy_views(self):
        table = TenantTable.generate(64)
        shard = table.shard(1, 4)
        assert np.shares_memory(shard.theta, table.theta)

    def test_shard_rows_keep_identity(self):
        # base_index keeps names and seeds stable, so a shard's row i
        # is the full table's row (start + i) — byte for byte.
        table = TenantTable.generate(100)
        shard = table.shard(2, 4)
        assert shard.base_index == 50
        assert shard.workload(0) == table.workload(50)

    def test_bad_shard_arguments(self):
        table = TenantTable.generate(10)
        with pytest.raises(ConfigError):
            table.shard(0, 0)
        with pytest.raises(ConfigError):
            table.shard(4, 4)
