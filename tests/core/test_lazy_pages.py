"""Pages are ids until someone reads one.

The page file and the anonymous page set register ids on preload, on a
window fill and on a cold fault; the blank :class:`Page` is built, and
kept, on the first read — ``peek``, ``read_page``, ``get_page``,
``frame_of(...).page`` or a dirty write-back. A page nobody has read is
indistinguishable from a blank one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ElasticCluster, ScaleUpEngine
from repro.errors import StorageError
from repro.storage.page import Page
from tests.core.test_cold_fill import block_of, make_pool, point_block


def built(pool) -> list[int]:
    """Ids whose Page object the pool's home has built, sorted."""
    if pool.backing is None:
        return sorted(pool._anonymous_pages)
    return sorted(pid for pid, page in pool.backing._pages.items()
                  if page is not None)


def blank(pool, page_id: int) -> Page:
    return Page(page_id=page_id, size_bytes=pool.page_size)


@pytest.mark.parametrize("with_storage", [True, False])
def test_preload_builds_no_page(with_storage):
    engine = ScaleUpEngine.build(dram_pages=64, cxl_pages=2000,
                                 with_storage=with_storage)
    engine.preload(np.arange(1500, dtype=np.int64))
    pool = engine.pool
    assert pool.resident_pages == 1500
    assert pool.lane.fill_installs == 1500
    assert built(pool) == []
    if with_storage:
        assert pool.backing.page_count == 1500
        assert pool.backing.page_ids() == list(range(1500))
    else:
        assert pool._anonymous_pages == {}


@pytest.mark.parametrize("backed", [True, False])
def test_window_fill_and_cold_fault_build_no_page(backed):
    pool = make_pool(backed=backed)
    pool.access_block(point_block([5, 9, 5, 40]))
    pool.access(41)                       # a scalar cold fault
    pool.access_run(np.array([7, 8, 9], dtype=np.int64))
    assert pool.lane.fill_installs >= 5
    assert sorted(pool.resident_order()[0].tolist()) == [5, 7, 8, 9, 40, 41]
    assert built(pool) == []
    if backed:
        assert pool.backing.page_ids() == [5, 7, 8, 9, 40, 41]


@pytest.mark.parametrize("backed", [True, False])
def test_every_read_hands_out_one_blank_page(backed):
    pool = make_pool(backed=backed)
    pool.access_block(point_block(range(6)))
    reads = [lambda p: pool.get_page(p), lambda p: pool.frame_of(p).page]
    if backed:
        reads += [pool.backing.peek, lambda p: pool.backing.read_page(p)[0]]
    for page_id, read in enumerate(reads):
        page = read(page_id)
        assert page == blank(pool, page_id)
        assert read(page_id) is page
        assert pool.get_page(page_id) is page
    assert built(pool) == list(range(len(reads)))


@pytest.mark.parametrize("backed", [True, False])
def test_scalar_dirty_eviction_writes_back_a_blank_page(backed):
    pool = make_pool(caps=(2, 2), backed=backed)
    pool.access(0, write=True)
    pool.access(2)
    pool.access(4)                        # evicts dirty 0, scalar path
    assert pool.stats.writebacks == 1
    assert built(pool) == [0]
    home = pool.backing.peek if backed else pool._anonymous_pages.get
    page = home(0)
    assert page == blank(pool, 0)
    assert pool.get_page(0) is page


def test_window_dirty_write_back_builds_only_the_dirty_victims():
    pool = make_pool(caps=(4, 4), backed=True)
    for page_id in (0, 2, 4, 6):
        pool.access(page_id, write=page_id in (2, 6))
    writes = pool.backing.device.stats.writes
    pool.access_block(block_of([(p, False, False, 64, 7.0)
                                for p in (8, 10, 12, 14)]))
    assert pool.lane.evict_installs == 4
    assert pool.stats.writebacks == 2
    assert pool.backing.device.stats.writes - writes == 2
    assert built(pool) == [2, 6]
    page = pool.backing.peek(2)
    assert page == blank(pool, 2) and pool.backing.peek(2) is page


@pytest.mark.parametrize("backed", [True, False])
def test_adopting_the_pools_own_page_is_not_recorded(backed):
    pool = make_pool(backed=backed)
    pool.access(3)
    own = pool.get_page(3)
    pool.drop_all()
    pool.adopt_resident(own, tier_index=1)
    assert pool._adopted == {}
    assert pool.get_page(3) is own
    foreign = Page(page_id=5, size_bytes=pool.page_size)
    if backed:
        pool.backing.ensure(5)
    pool.adopt_resident(foreign, tier_index=1)
    assert pool._adopted == {5: foreign}


def test_elastic_dataset_is_registered_not_built():
    cluster = ElasticCluster(pool_capacity_bytes=64 * 2 ** 20,
                             dataset_pages=5000)
    backing = cluster.backing
    assert backing.page_count == 5000
    assert backing.page_ids() == list(range(5000))
    assert set(backing._pages.values()) == {None}
    assert backing.allocate_page().page_id == 5000
    with pytest.raises(StorageError, match="cannot allocate -1 pages"):
        ElasticCluster(dataset_pages=-1)
