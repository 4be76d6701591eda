"""A full-stack HTAP session: one engine, everything at once.

TPC-C-lite transactions, repeated TPC-H queries, and index lookups
share a single tiered engine with the cost-based placement policy —
the configuration Sec 3.1 proposes. The test asserts correctness
(query results unchanged by placement churn) and the structural
invariants of the pool after the storm.
"""

import pytest

from repro.core import DbCostPolicy, ScaleUpEngine
from repro.core.btree import TieredBTree
from repro.query import tpch
from repro.storage.disk import StorageDevice
from repro.storage.file import PageFile
from repro.workloads.tpcc import TPCCLite


@pytest.fixture(scope="module")
def session():
    pf = PageFile(StorageDevice())
    data = tpch.generate(pf, lineitem_rows=6_000, seed=4)
    tpcc = TPCCLite(num_warehouses=2, seed=4)
    # Make room for TPCC pages beyond the TPC-H tables.
    engine = ScaleUpEngine.build(
        dram_pages=1_500,
        cxl_pages=tpcc.total_pages + data.total_pages + 4_096,
        placement=DbCostPolicy(rebalance_interval=2_000),
        backing=pf,
    )
    index_base = 10_000_000
    index = TieredBTree.bulk_build(
        engine.pool,
        [(key, (key, key * 2.0)) for key in range(5_000)],
        first_page_id=index_base,
    )
    return engine, data, tpcc, index


class TestHTAPDay:
    def test_mixed_session_correctness(self, session):
        engine, data, tpcc, index = session
        q1_reference = sorted(tpch.q1(engine, data))
        q6_reference = sorted(tpch.q6(engine, data))

        for round_number in range(3):
            # OLTP burst.
            report = engine.run(tpcc.flat_trace_blocks(300),
                                label=f"oltp-{round_number}")
            assert report.ops > 0
            # Analytical queries return identical answers every time,
            # no matter what the placement policy moved meanwhile.
            assert sorted(tpch.q1(engine, data)) == q1_reference
            assert sorted(tpch.q6(engine, data)) == q6_reference
            # Point lookups through the index remain exact.
            for key in range(0, 5_000, 777):
                assert index.lookup(key) == (key, key * 2.0)

    def test_pool_invariants_after_the_storm(self, session):
        engine, _data, _tpcc, _index = session
        pool = engine.pool
        for tier_index, tier in enumerate(pool.tiers):
            assert pool.tier_residents(tier_index) <= tier.capacity_pages
            assert (len(list(pool.resident_in(tier_index)))
                    == pool.tier_residents(tier_index))
        all_pages = [
            page for i in range(len(pool.tiers))
            for page in pool.resident_in(i)
        ]
        assert len(all_pages) == len(set(all_pages))
        assert pool.stats.hit_rate > 0.5

    def test_hot_oltp_pages_gravitate_to_dram(self, session):
        engine, _data, tpcc, _index = session
        # Hammer a handful of hot warehouse pages, then rebalance.
        from repro.workloads.tpcc import RecordOp
        hot_pages = {
            tpcc.page_of(RecordOp("warehouse", w, 0)) for w in range(2)
        } | {
            tpcc.page_of(RecordOp("district", 0, d)) for d in range(10)
        }
        for _ in range(300):
            for page in hot_pages:
                engine.pool.access(page)
        engine.pool.placement.rebalance()
        in_dram = sum(
            1 for page in hot_pages if engine.pool.tier_of(page) == 0
        )
        assert in_dram >= len(hot_pages) * 0.8
