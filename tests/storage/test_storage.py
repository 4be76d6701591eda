"""Pages, block devices, and page files."""

import numpy as np
import pytest

from repro import config
from repro.errors import DeviceFailure, StorageError
from repro.storage.disk import StorageDevice
from repro.storage.file import PageFile
from repro.storage.page import INVALID_PAGE_ID, Page
from repro.units import PAGE_SIZE, us


class TestPage:
    def test_defaults(self):
        page = Page(page_id=7)
        assert page.page_id == 7
        assert page.size_bytes == PAGE_SIZE
        assert page.version == 0
        assert page.records == []

    def test_version_bumps(self):
        page = Page(page_id=0)
        assert page.bump_version() == 1
        page.add_record(("a",))
        assert page.version == 2
        assert page.records == [("a",)]

    def test_invalid_sentinel(self):
        assert INVALID_PAGE_ID == -1


class TestStorageDevice:
    def test_nvme_4k_read_latency(self):
        device = StorageDevice(config.nvme_ssd())
        t = device.read_time(PAGE_SIZE)
        assert t == pytest.approx(us(10) + PAGE_SIZE / 7.0, rel=0.01)

    def test_writes_slower_than_reads(self):
        device = StorageDevice()
        assert device.write_time(PAGE_SIZE) > device.read_time(PAGE_SIZE)

    def test_hdd_much_slower(self):
        nvme = StorageDevice(config.nvme_ssd())
        hdd = StorageDevice(config.hdd())
        assert hdd.read_time(PAGE_SIZE) > 100 * nvme.read_time(PAGE_SIZE)

    def test_stats(self):
        device = StorageDevice()
        device.read_time(PAGE_SIZE)
        device.write_time(PAGE_SIZE)
        assert device.stats.ios == 2
        assert device.stats.read_bytes == PAGE_SIZE

    def test_contended_io_queues(self):
        device = StorageDevice()
        t1 = device.read_completion(1024 * 1024, 0.0)
        t2 = device.read_completion(1024 * 1024, 0.0)
        assert t2 > t1

    def test_failure(self):
        device = StorageDevice()
        device.fail()
        with pytest.raises(DeviceFailure):
            device.read_time(PAGE_SIZE)

    def test_invalid_size(self):
        with pytest.raises(StorageError):
            StorageDevice().read_time(0)


class TestPageFile:
    def test_allocate_sequential_ids(self):
        pf = PageFile(StorageDevice())
        pages = pf.allocate_pages(3)
        assert [p.page_id for p in pages] == [0, 1, 2]
        assert pf.page_count == 3
        assert pf.size_bytes == 3 * PAGE_SIZE

    def test_read_returns_page_and_time(self):
        pf = PageFile(StorageDevice())
        pf.allocate_pages(1)
        page, t = pf.read_page(0)
        assert page.page_id == 0
        assert t > 0

    def test_read_missing_raises(self):
        pf = PageFile(StorageDevice())
        with pytest.raises(StorageError):
            pf.read_page(0)

    def test_write_roundtrip(self):
        pf = PageFile(StorageDevice())
        page = pf.allocate_page()
        page.add_record(("hello",))
        pf.write_page(page)
        again, _t = pf.read_page(page.page_id)
        assert again.records == [("hello",)]

    def test_peek_charges_no_io(self):
        pf = PageFile(StorageDevice())
        pf.allocate_pages(1)
        before = pf.device.stats.reads
        pf.peek(0)
        assert pf.device.stats.reads == before

    def test_contains(self):
        pf = PageFile(StorageDevice())
        pf.allocate_pages(2)
        assert pf.contains(1)
        assert not pf.contains(2)

    def test_negative_allocation_rejected(self):
        with pytest.raises(StorageError):
            PageFile(StorageDevice()).allocate_pages(-1)

    def test_page_ids_sorted(self):
        pf = PageFile(StorageDevice())
        pf.allocate_pages(5)
        assert pf.page_ids() == [0, 1, 2, 3, 4]

    def test_ensure_many_is_an_ensure_loop(self):
        one, many = PageFile(StorageDevice()), PageFile(StorageDevice())
        for ids in ([5, 2, 9], [2, 9], [9, 11, 0], []):
            assert many.ensure_many(ids) is None
            for pid in ids:
                assert one.ensure(pid) is None
            assert many._pages == one._pages
        assert many.page_ids() == one.page_ids() == [0, 2, 5, 9, 11]
        assert many.page_count == one.page_count == 5
        assert many.allocate_page().page_id == \
            one.allocate_page().page_id == 12
        with pytest.raises(StorageError, match="invalid page id -1"):
            many.ensure_many([3, -1])
        assert not many.contains(3)
        assert many.device.stats.reads == 0

    @pytest.mark.parametrize("bad", [2.5, True, False, -2, "3", None])
    def test_ensure_refuses_a_bad_id_and_registers_nothing(self, bad):
        pf = PageFile(StorageDevice())
        pf.ensure(4)
        for call in (lambda: pf.ensure(bad),
                     lambda: pf.ensure_many([1, bad, 6])):
            with pytest.raises(StorageError, match="invalid page id"):
                call()
            assert pf.page_ids() == [4]
            assert pf.page_count == 1
        assert pf.allocate_page().page_id == 5

    def test_ensure_many_refuses_a_float_or_bool_array(self):
        pf = PageFile(StorageDevice())
        for bad in (np.array([1.0, 2.0]), np.array([True, False])):
            with pytest.raises(StorageError, match="invalid page id"):
                pf.ensure_many(bad)
        assert pf.page_count == 0

    def test_ensure_stores_python_int_keys(self):
        pf = PageFile(StorageDevice())
        pf.ensure_many(np.array([5, 6]))
        pf.ensure_many([np.int32(7), np.uint64(8)])
        pf.ensure(np.int64(9))
        assert pf.page_ids() == [5, 6, 7, 8, 9]
        assert {type(pid) for pid in pf.page_ids()} == {int}
        assert pf.allocate_page().page_id == 10

    def test_watermark_climbs_over_registered_ids_only(self):
        pf = PageFile(StorageDevice())
        pf.ensure_many(np.arange(100))
        assert pf._dense == 100
        pf.ensure_many(np.array([98, 150, 7]))      # past it, with a gap
        assert pf._dense == 100 and pf.contains(150)
        assert not pf.contains(120)
        pf.allocate_pages(3)                        # 151, 152, 153
        pf.install(Page(page_id=100))
        pf.ensure_many(np.arange(101, 150))
        assert pf._dense == 154
        assert pf.page_ids() == list(range(154))
        assert pf.allocate_page().page_id == 154

    def test_refault_below_the_watermark_registers_nothing(self):
        pf = PageFile(StorageDevice())
        pf.ensure_many(np.arange(64))
        pf.peek(5)
        before = dict(pf._pages)
        for ids in (np.arange(64)[::-1], np.array([0]),
                    np.array([63, 2], dtype=np.uint16)):
            pf.ensure_many(ids)
        assert pf._pages == before and pf.peek(5) is before[5]
        assert pf._next_id == 64

    @pytest.mark.parametrize("bad", [
        np.array([-1, 3]), np.array([True, False]), np.array([1.0, 2.0]),
        np.array([[1, 2]]), np.array([3, -5], dtype=np.int8)])
    def test_watermark_keeps_every_refusal(self, bad):
        pf = PageFile(StorageDevice())
        pf.ensure_many(np.arange(10))
        with pytest.raises(StorageError, match="invalid page id"):
            pf.ensure_many(bad)
        assert pf.page_ids() == list(range(10)) and pf._dense == 10

    def test_ensure_many_past_the_watermark_is_an_ensure_loop(self):
        rng = np.random.default_rng(4)
        one, many = PageFile(StorageDevice()), PageFile(StorageDevice())
        for _ in range(40):
            ids = rng.integers(0, rng.choice([30, 300]), size=rng.integers(
                0, 50))
            many.ensure_many(ids)
            for pid in ids.tolist():
                one.ensure(pid)
            assert many._pages == one._pages
            assert many._next_id == one._next_id
            assert all(many.contains(p) for p in range(many._dense))
        assert many.page_ids() == one.page_ids()

    def test_registered_pages_are_built_on_first_read(self):
        pf = PageFile(StorageDevice())
        pf.ensure_many(range(1000))
        assert set(pf._pages.values()) == {None}
        page = pf.peek(17)
        assert page == Page(page_id=17)
        assert page is pf.peek(17) is pf.read_page(17)[0]
        read, _t = pf.read_page(18)
        assert read == Page(page_id=18) and read is pf.peek(18)
        assert sum(p is not None for p in pf._pages.values()) == 2
        pf.ensure_many([17, 18])
        assert pf.peek(17) is page

    def test_write_page_of_a_registered_page_builds_no_blank(self):
        pf = PageFile(StorageDevice())
        pf.ensure(3)
        page = Page(page_id=3)
        page.add_record(("x",))
        pf.write_page(page)
        assert pf.peek(3) is page
        with pytest.raises(StorageError, match="no page 4"):
            pf.write_page(Page(page_id=4))

    def test_sparse_registration_keeps_the_file_shape(self):
        lazy, eager = PageFile(StorageDevice()), PageFile(StorageDevice())
        ids = [40, 3, 17, 3]
        lazy.ensure_many(ids)
        for pid in ids:
            if not eager.contains(pid):
                eager.install(Page(page_id=pid))
        for pid in range(45):
            assert lazy.contains(pid) == eager.contains(pid)
        assert lazy.page_count == eager.page_count == 3
        assert lazy.size_bytes == eager.size_bytes
        assert lazy.page_ids() == eager.page_ids() == [3, 17, 40]
        assert [lazy.peek(p) for p in ids] == [eager.peek(p) for p in ids]
        assert lazy.allocate_page().page_id == \
            eager.allocate_page().page_id == 41
