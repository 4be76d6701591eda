"""Property-based tests: query operators, locks, stats, Zipf."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import ScaleUpEngine
from repro.metrics.stats import StreamingStats, percentile
from repro.query.hashjoin import HashJoin
from repro.query.operators import HashAggregate, TableScan, collect
from repro.query.schema import Column, ColumnType, Schema
from repro.query.sort import ExternalSort, SortMergeJoin
from repro.query.table import Table
from repro.storage.disk import StorageDevice
from repro.storage.file import PageFile
from repro.workloads.zipf import ZipfGenerator


def _engine_and_table(rows):
    pf = PageFile(StorageDevice())
    schema = Schema([Column("k"), Column("v", ColumnType.FLOAT)])
    table = Table("t", schema, pf)
    table.bulk_load(rows)
    engine = ScaleUpEngine.build(dram_pages=max(table.page_count, 1) + 4,
                                 backing=pf)
    return engine, table


rows_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=20),
              st.floats(min_value=-100, max_value=100,
                        allow_nan=False)),
    min_size=1, max_size=300,
)


@given(rows=rows_strategy)
@settings(max_examples=40, deadline=None)
def test_sort_is_a_permutation_and_sorted(rows):
    engine, table = _engine_and_table(rows)
    out, _ = collect(ExternalSort(TableScan(table), "k"), engine)
    assert sorted(out) == sorted(rows)
    keys = [r[0] for r in out]
    assert keys == sorted(keys)


@given(rows=rows_strategy)
@settings(max_examples=30, deadline=None)
def test_hash_join_equals_sort_merge_join(rows):
    """Both join algorithms compute the same multiset of results."""
    engine, table = _engine_and_table(rows)
    hj, _ = collect(
        HashJoin(TableScan(table), TableScan(table), "k", "k"), engine
    )
    smj, _ = collect(
        SortMergeJoin(TableScan(table), TableScan(table), "k", "k"),
        engine,
    )
    assert sorted(hj) == sorted(smj)


@given(rows=rows_strategy)
@settings(max_examples=30, deadline=None)
def test_join_equals_nested_loop_reference(rows):
    engine, table = _engine_and_table(rows)
    out, _ = collect(
        HashJoin(TableScan(table), TableScan(table), "k", "k"), engine
    )
    # Self-join: the right side's same-named columns are dropped
    # (USING-style), so each match contributes the left row only.
    reference = sorted(a for a in rows for b in rows if a[0] == b[0])
    assert sorted(out) == reference


@given(rows=rows_strategy)
@settings(max_examples=30, deadline=None)
def test_aggregate_matches_python_groupby(rows):
    engine, table = _engine_and_table(rows)
    agg = HashAggregate(TableScan(table), group_by=["k"],
                        aggs=[("n", "count", None), ("s", "sum", "v")])
    out, _ = collect(agg, engine)
    expected: dict[int, tuple[int, float]] = {}
    for k, v in rows:
        n, s = expected.get(k, (0, 0.0))
        expected[k] = (n + 1, s + v)
    assert len(out) == len(expected)
    for k, n, s in out:
        assert expected[k][0] == n
        assert expected[k][1] == pytest.approx(s)


@given(data=st.lists(st.floats(min_value=-1e6, max_value=1e6,
                               allow_nan=False),
                     min_size=2, max_size=500))
@settings(max_examples=60, deadline=None)
def test_streaming_stats_match_numpy(data):
    stats = StreamingStats()
    for x in data:
        stats.add(x)
    assert stats.mean == pytest.approx(float(np.mean(data)), abs=1e-6,
                                       rel=1e-6)
    assert stats.variance == pytest.approx(float(np.var(data)), abs=1e-4,
                                           rel=1e-4)
    assert stats.min == min(data)
    assert stats.max == max(data)


@given(data=st.lists(st.floats(min_value=0, max_value=1e6,
                               allow_nan=False),
                     min_size=1, max_size=200),
       q=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_percentile_within_data_range(data, q):
    p = percentile(data, q)
    assert min(data) <= p <= max(data)


@given(n=st.integers(min_value=2, max_value=5_000),
       theta=st.floats(min_value=0.0, max_value=1.2))
@settings(max_examples=40, deadline=None)
def test_zipf_mass_is_monotone_in_fraction(n, theta):
    zipf = ZipfGenerator(n, theta=theta)
    masses = [zipf.hot_set_mass(f) for f in (0.1, 0.3, 0.6, 1.0)]
    assert all(a <= b + 1e-12 for a, b in zip(masses, masses[1:]))
    assert masses[-1] == pytest.approx(1.0)


@given(n=st.integers(min_value=10, max_value=1_000),
       theta=st.floats(min_value=0.5, max_value=1.2),
       count=st.integers(min_value=1, max_value=500))
@settings(max_examples=30, deadline=None)
def test_zipf_samples_always_in_range(n, theta, count):
    zipf = ZipfGenerator(n, theta=theta, scramble=True)
    samples = zipf.sample(count)
    assert samples.min() >= 0
    assert samples.max() < n
