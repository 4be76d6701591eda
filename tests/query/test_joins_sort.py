"""Hash join, external sort, sort-merge join, and the planner."""

import pytest

from repro import config
from repro.core.engine import ScaleUpEngine
from repro.errors import QueryError
from repro.query.hashjoin import HashJoin
from repro.query.operators import TableScan, collect
from repro.query.planner import JoinPlanner
from repro.query.schema import Column, ColumnType, Schema
from repro.query.sort import ExternalSort, SortMergeJoin
from repro.query.table import Table
from repro.sim.interconnect import AccessPath, Link
from repro.sim.memory import MemoryDevice
from repro.storage.disk import StorageDevice
from repro.storage.file import PageFile


@pytest.fixture
def setup():
    pf = PageFile(StorageDevice())
    left_schema = Schema([Column("id"), Column("a", ColumnType.FLOAT)])
    right_schema = Schema([Column("rid"), Column("id"),
                           Column("b", ColumnType.STR)])
    left = Table("left", left_schema, pf)
    left.bulk_load((i, float(i)) for i in range(200))
    right = Table("right", right_schema, pf)
    # Each left id matches exactly two right rows.
    right.bulk_load((j, j % 200, f"r{j}") for j in range(400))
    engine = ScaleUpEngine.build(dram_pages=64, backing=pf)
    return engine, left, right


def _join_key_counts(rows, idx=0):
    counts = {}
    for row in rows:
        counts[row[idx]] = counts.get(row[idx], 0) + 1
    return counts


class TestHashJoin:
    def test_inner_join_cardinality(self, setup):
        engine, left, right = setup
        join = HashJoin(TableScan(left), TableScan(right), "id", "id")
        rows, _ = collect(join, engine)
        assert len(rows) == 400
        assert all(_join_key_counts(rows)[k] == 2 for k in range(200))

    def test_join_schema_merges_without_duplicates(self, setup):
        _engine, left, right = setup
        join = HashJoin(TableScan(left), TableScan(right), "id", "id")
        assert join.schema.names == ["id", "a", "rid", "b"]

    def test_no_matches(self, setup):
        engine, left, right = setup
        join = HashJoin(
            TableScan(left, predicate=lambda r: r[0] > 10_000),
            TableScan(right), "id", "id",
        )
        rows, _ = collect(join, engine)
        assert rows == []

    def test_partitioned_join_same_result(self, setup):
        engine, left, right = setup
        join = HashJoin(TableScan(left), TableScan(right), "id", "id",
                        work_mem_rows=50)  # forces 4 partitions
        rows, _ = collect(join, engine)
        assert len(rows) == 400

    def test_spill_charges_time(self, setup):
        engine, left, right = setup
        # Warm the pool so page-fault noise doesn't mask spill costs.
        collect(TableScan(left), engine)
        collect(TableScan(right), engine)
        path = AccessPath(device=MemoryDevice(config.cxl_expander_ddr5()),
                          links=(Link(config.cxl_port()),))
        in_mem = HashJoin(TableScan(left), TableScan(right), "id", "id",
                          work_path=path)
        _rows, t_mem = collect(in_mem, engine)
        spilled = HashJoin(TableScan(left), TableScan(right), "id", "id",
                           work_path=path, work_mem_rows=50)
        _rows, t_spill = collect(spilled, engine)
        assert t_spill > t_mem


class TestExternalSort:
    def test_sorts(self, setup):
        engine, left, _right = setup
        sort = ExternalSort(TableScan(left), "id", descending=True)
        rows, _ = collect(sort, engine)
        assert [r[0] for r in rows[:3]] == [199, 198, 197]

    def test_merge_passes(self, setup):
        _engine, left, _right = setup
        sort = ExternalSort(TableScan(left), "id", work_mem_rows=10)
        assert sort.merge_passes(200) == 1
        assert sort.merge_passes(5) == 0
        big = ExternalSort(TableScan(left), "id", work_mem_rows=10)
        assert big.merge_passes(10 * 64 * 64) >= 2

    def test_spill_costs_time(self, setup):
        engine, left, _right = setup
        path = AccessPath(device=MemoryDevice(config.cxl_expander_ddr5()))
        small = ExternalSort(TableScan(left), "id", work_path=path,
                             work_mem_rows=10)
        _rows, t_spill = collect(small, engine)
        big = ExternalSort(TableScan(left), "id", work_path=path)
        _rows, t_mem = collect(big, engine)
        assert t_spill > t_mem

    def test_empty_input(self, setup):
        engine, left, _right = setup
        sort = ExternalSort(
            TableScan(left, predicate=lambda _r: False), "id"
        )
        rows, _ = collect(sort, engine)
        assert rows == []


class TestSortMergeJoin:
    def test_same_result_as_hash_join(self, setup):
        engine, left, right = setup
        smj = SortMergeJoin(TableScan(left), TableScan(right), "id", "id")
        rows, _ = collect(smj, engine)
        assert len(rows) == 400
        assert smj.schema.names == ["id", "a", "rid", "b"]

    def test_duplicate_keys_cross_product(self, setup):
        engine, _left, right = setup
        pf = right.pagefile
        dup_schema = Schema([Column("id"), Column("x")])
        dups = Table("dups", dup_schema, pf)
        dups.bulk_load([(1, 10), (1, 11)])
        smj = SortMergeJoin(TableScan(dups), TableScan(dups), "id", "id")
        rows, _ = collect(smj, engine)
        assert len(rows) == 4


class TestJoinPlanner:
    def test_hash_preferred_in_fast_memory(self, setup):
        _engine, left, right = setup
        dram = AccessPath(device=MemoryDevice(config.local_ddr5()))
        planner = JoinPlanner(work_path=dram)
        _op, choice = planner.choose_join(
            TableScan(left), TableScan(right), "id", "id",
            left_rows=1_000_000, right_rows=1_000_000,
        )
        assert choice.algorithm == "hash"

    def test_crossover_possible_with_latency_bound_memory(self, setup):
        """At rack scale (GFAM latency), large hash tables pay per-probe
        latency while sort streams — the Sec 3.3 'accepted wisdom'
        question."""
        _engine, left, right = setup
        gfam = AccessPath(
            device=MemoryDevice(config.cxl_expander_ddr5()),
            links=(Link(config.cxl_port()), Link(config.cxl_switch_hop()),
                   Link(config.cxl_switch_hop())),
        )
        planner = JoinPlanner(work_path=gfam, work_mem_rows=10_000_000)
        _op, choice = planner.choose_join(
            TableScan(left), TableScan(right), "id", "id",
            left_rows=5_000_000, right_rows=5_000_000,
        )
        assert choice.algorithm == "sort-merge"

    def test_chosen_operator_runs(self, setup):
        engine, left, right = setup
        planner = JoinPlanner()
        op, _choice = planner.choose_join(
            TableScan(left), TableScan(right), "id", "id",
            left_rows=200, right_rows=400,
        )
        rows, _ = collect(op, engine)
        assert len(rows) == 400

    @pytest.mark.parametrize("rows", [
        -1, float("nan"), float("inf"), 10.5, 4.0, True, "10", None])
    def test_bad_cardinality_is_a_query_error(self, setup, rows):
        """The planner prices only an integer count of rows >= 0: NaN
        and infinity used to escape as bare ValueError/OverflowError,
        and 10.5 or True were priced as if they were counts."""
        _engine, left, right = setup
        planner = JoinPlanner(work_mem_rows=50_000_000)
        for left_rows, right_rows in ((rows, 10), (10, rows)):
            with pytest.raises(QueryError):
                planner.choose_join(TableScan(left), TableScan(right),
                                    "id", "id", left_rows, right_rows)
