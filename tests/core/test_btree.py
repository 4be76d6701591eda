"""Tier-spanning B+tree (Sec 3.1 research question)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import config
from repro.core.btree import TieredBTree
from repro.core.buffer import Tier, TieredBufferPool
from repro.core.placement import StaticPolicy
from repro.errors import QueryError
from repro.sim.interconnect import AccessPath, Link
from repro.sim.memory import MemoryDevice


def make_pool(classifier=lambda _p: 0, dram=4_096, cxl=4_096):
    tiers = [
        Tier("dram", AccessPath(device=MemoryDevice(config.local_ddr5())),
             dram),
        Tier("cxl", AccessPath(
            device=MemoryDevice(config.cxl_expander_ddr5()),
            links=(Link(config.cxl_port()),)), cxl),
    ]
    return TieredBufferPool(tiers=tiers,
                            placement=StaticPolicy(classifier))


def build(n=1_000, pool=None, **kwargs):
    pool = pool or make_pool()
    items = [(i, i * 10) for i in range(n)]
    return TieredBTree.bulk_build(pool, items, first_page_id=0,
                                  **kwargs), pool


class TestConstruction:
    def test_shape(self):
        tree, _ = build(1_000, fanout=8, leaf_capacity=16)
        assert tree.size == 1_000
        assert len(tree.leaf_page_ids) == 63  # ceil(1000/16)
        assert tree.height >= 3

    def test_single_leaf(self):
        tree, _ = build(5)
        assert tree.height == 1
        assert tree.inner_page_ids == []

    def test_unsorted_rejected(self):
        pool = make_pool()
        with pytest.raises(QueryError):
            TieredBTree.bulk_build(pool, [(2, 0), (1, 0)],
                                   first_page_id=0)

    def test_duplicate_keys_rejected(self):
        pool = make_pool()
        with pytest.raises(QueryError):
            TieredBTree.bulk_build(pool, [(1, 0), (1, 1)],
                                   first_page_id=0)

    def test_invalid_parameters(self):
        pool = make_pool()
        with pytest.raises(QueryError):
            TieredBTree(pool, 0, fanout=1)
        with pytest.raises(QueryError):
            TieredBTree(pool, 0, leaf_capacity=0)

    def test_empty_tree_has_no_root(self):
        tree = TieredBTree(make_pool(), 0)
        with pytest.raises(QueryError):
            tree.root_page_id


class TestLookup:
    def test_every_key_found(self):
        tree, _ = build(2_000, fanout=8, leaf_capacity=16)
        for key in range(0, 2_000, 7):
            assert tree.lookup(key) == key * 10

    def test_boundary_keys(self):
        tree, _ = build(1_000, fanout=4, leaf_capacity=8)
        assert tree.lookup(0) == 0
        assert tree.lookup(999) == 9_990

    def test_missing_keys_return_none(self):
        pool = make_pool()
        items = [(i * 2, i) for i in range(500)]
        tree = TieredBTree.bulk_build(pool, items, first_page_id=0)
        assert tree.lookup(1) is None
        assert tree.lookup(-5) is None
        assert tree.lookup(10_000) is None

    def test_lookup_charges_one_access_per_level(self):
        tree, pool = build(2_000, fanout=8, leaf_capacity=16)
        before = pool.stats.accesses
        tree.lookup(1_234)
        assert pool.stats.accesses - before == tree.height


class TestTierPlacement:
    def _lookup_cost(self, classifier_factory, probes=200):
        shape_pool = make_pool()
        items = [(i, i) for i in range(50_000)]
        shape_tree = TieredBTree.bulk_build(shape_pool, items,
                                            first_page_id=0)
        pool = make_pool(classifier_factory(shape_tree))
        tree = TieredBTree.bulk_build(pool, items, first_page_id=0)
        for key in range(0, 50_000, 37):  # warm
            tree.lookup(key)
        start = pool.clock.now
        for key in range(0, 50_000, 50_000 // probes):
            tree.lookup(key)
        return (pool.clock.now - start) / probes

    def test_hybrid_between_dram_and_cxl(self):
        """The Sec 3.1 answer: spanning tiers lands between the pure
        placements, far closer to DRAM than to CXL."""
        dram = self._lookup_cost(lambda _t: (lambda _p: 0))
        hybrid = self._lookup_cost(
            lambda tree: tree.page_classifier(0, 1))
        cxl = self._lookup_cost(lambda _t: (lambda _p: 1))
        assert dram < hybrid < cxl
        # Hybrid gives up less than half of the DRAM advantage.
        assert (hybrid - dram) < 0.5 * (cxl - dram)

    def test_hybrid_dram_footprint_is_tiny(self):
        pool = make_pool()
        items = [(i, i) for i in range(50_000)]
        tree = TieredBTree.bulk_build(pool, items, first_page_id=0)
        inner = len(tree.inner_page_ids)
        leaves = len(tree.leaf_page_ids)
        assert inner < leaves / 20  # inner levels are a rounding error


@given(keys=st.sets(st.integers(min_value=-10_000, max_value=10_000),
                    min_size=1, max_size=400),
       fanout=st.integers(min_value=2, max_value=16),
       leaf_capacity=st.integers(min_value=1, max_value=32))
@settings(max_examples=50, deadline=None)
def test_btree_matches_dict_reference(keys, fanout, leaf_capacity):
    """Property: lookups agree with a dict reference for any key set
    and any tree geometry."""
    items = [(key, key * 3) for key in sorted(keys)]
    pool = make_pool()
    tree = TieredBTree.bulk_build(pool, items, first_page_id=0,
                                  fanout=fanout,
                                  leaf_capacity=leaf_capacity)
    reference = dict(items)
    sample = sorted(keys)[::max(1, len(keys) // 20)]
    for key in sample:
        assert tree.lookup(key) == reference[key]
        assert tree.lookup(key + 20_001) is None

