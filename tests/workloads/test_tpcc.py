"""TPC-C-lite transaction generation."""

import pytest

from repro.errors import ConfigError
from repro.workloads.tpcc import (
    RECORDS_PER_PAGE,
    TABLE_CARDINALITY,
    TPCCLite,
    RecordOp,
    Transaction,
)


@pytest.fixture
def gen() -> TPCCLite:
    return TPCCLite(num_warehouses=4, remote_probability=0.1, seed=1)


class TestPageMapping:
    def test_pages_disjoint_across_tables(self, gen):
        seen = {}
        for table in TABLE_CARDINALITY:
            for warehouse in range(4):
                op = RecordOp(table, warehouse, 0)
                page = gen.page_of(op)
                key = (table, warehouse)
                assert page not in seen.values(), f"collision for {key}"
                seen[key] = page

    def test_keys_in_same_page_range(self, gen):
        first = gen.page_of(RecordOp("customer", 0, 0))
        last = gen.page_of(RecordOp(
            "customer", 0, TABLE_CARDINALITY["customer"] - 1))
        import math
        expected_pages = math.ceil(
            TABLE_CARDINALITY["customer"] / RECORDS_PER_PAGE["customer"])
        assert last - first == expected_pages - 1

    def test_shared_table_warehouse_minus_one(self, gen):
        page = gen.page_of(RecordOp("item", -1, 0))
        assert 0 <= page < gen.total_pages

    def test_unknown_table_rejected(self, gen):
        with pytest.raises(ConfigError):
            gen.page_of(RecordOp("ghost", 0, 0))

    def test_total_pages_positive(self, gen):
        assert gen.total_pages > 1_000


class TestTransactionMix:
    def test_profile_distribution(self):
        gen = TPCCLite(num_warehouses=4, seed=2)
        counts = {}
        for txn in gen.transactions(4_000):
            counts[txn.profile] = counts.get(txn.profile, 0) + 1
        assert counts["new_order"] / 4_000 == pytest.approx(0.45, abs=0.04)
        assert counts["payment"] / 4_000 == pytest.approx(0.43, abs=0.04)
        assert set(counts) == {"new_order", "payment", "order_status",
                               "delivery", "stock_level"}

    def test_new_order_shape(self):
        gen = TPCCLite(num_warehouses=2, seed=3)
        txn = gen._build_new_order(1)
        tables = [op.table for op in txn.ops]
        assert "warehouse" in tables
        assert "district" in tables
        assert tables.count("item") == tables.count("stock")
        assert 5 <= tables.count("item") <= 15
        assert any(txn.writes)

    def test_payment_writes_warehouse(self):
        gen = TPCCLite(num_warehouses=2, seed=3)
        txn = gen._build_payment(1)
        warehouse_ops = [op for op in txn.ops if op.table == "warehouse"]
        assert warehouse_ops and warehouse_ops[0].write

    def test_remote_probability_zero_means_local(self):
        gen = TPCCLite(num_warehouses=8, remote_probability=0.0, seed=4)
        assert not any(t.remote for t in gen.transactions(500))

    def test_remote_probability_produces_remote_txns(self):
        gen = TPCCLite(num_warehouses=8, remote_probability=0.5, seed=4)
        remote = sum(1 for t in gen.transactions(500) if t.remote)
        assert remote > 50

    def test_single_warehouse_never_remote(self):
        gen = TPCCLite(num_warehouses=1, remote_probability=1.0, seed=5)
        assert not any(t.remote for t in gen.transactions(200))

    def test_customer_skew(self):
        gen = TPCCLite(num_warehouses=1, seed=6)
        hot = sum(
            1 for _ in range(2_000)
            if gen._customer_key() < TABLE_CARDINALITY["customer"] // 10
        )
        assert hot / 2_000 > 0.55  # 60% + uniform tail

    def test_flat_trace_maps_to_pages(self):
        gen = TPCCLite(num_warehouses=2, seed=7)
        blocks = list(gen.flat_trace_blocks(50))
        assert blocks
        assert all(((0 <= b.page_id) & (b.page_id < gen.total_pages)).all()
                   for b in blocks)
        assert any(b.write.any() for b in blocks)

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            TPCCLite(num_warehouses=0)
        with pytest.raises(ConfigError):
            TPCCLite(num_warehouses=1, remote_probability=1.5)

    @pytest.mark.parametrize("warehouses", [2.5, True, 4.0])
    def test_non_integer_warehouses_refused(self, warehouses):
        with pytest.raises(ConfigError, match="num_warehouses"):
            TPCCLite(num_warehouses=warehouses)

    @pytest.mark.parametrize("count", [2.5, -1, True])
    def test_bad_count_refused_before_drawing(self, count):
        gen = TPCCLite(num_warehouses=2, seed=8)
        with pytest.raises(ConfigError, match="count"):
            gen.transactions(count)
        assert gen._txn_counter == 0

    def test_zero_transactions(self):
        assert list(TPCCLite(num_warehouses=2).transactions(0)) == []

    def test_ops_view_round_trips_the_columns(self):
        gen = TPCCLite(num_warehouses=4, remote_probability=0.5, seed=9)
        for txn in gen.transactions(200):
            ops = txn.ops
            assert [op.table for op in ops] == txn.tables
            assert [op.warehouse for op in ops] == txn.warehouses
            assert [op.key for op in ops] == txn.keys
            assert [op.write for op in ops] == txn.writes
            copy = Transaction(txn.txn_id, txn.profile, txn.home_warehouse,
                               ops=ops, remote=txn.remote)
            assert copy.ops == ops
            assert copy.lock_set == txn.lock_set

    def test_lock_set_splits_records_by_write(self):
        txn = Transaction(1, "payment", 0, ops=[
            RecordOp("stock", 0, 7, write=True), RecordOp("stock", 1, 7),
            RecordOp("item", -1, 7), RecordOp("stock", 0, 7)])
        assert txn.lock_set == (
            [("stock", 0, 7)],
            [("stock", 1, 7), ("item", -1, 7), ("stock", 0, 7)])

    def test_assigning_ops_resets_the_lock_set(self):
        txn = Transaction(1, "payment", 0, ops=[RecordOp("t", 0, 1)])
        assert txn.lock_set[1]
        txn.ops = [RecordOp("t", 0, 1, write=True)]
        assert not txn.lock_set[1] and txn.lock_set[0]

    def test_txn_ids_unique_and_increasing(self):
        gen = TPCCLite(num_warehouses=2, seed=8)
        ids = [t.txn_id for t in gen.transactions(100)]
        assert ids == sorted(set(ids))
