"""Pages, block devices, and page files."""

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
            pages = many.ensure_many(ids)
            assert pages == [one.ensure(pid) for pid in ids]
            assert all(page is many.peek(pid)
                       for pid, page in zip(ids, pages))
        assert many.page_ids() == one.page_ids() == [0, 2, 5, 9, 11]
        assert many.allocate_page().page_id == \
            one.allocate_page().page_id == 12
        with pytest.raises(StorageError, match="invalid page id -1"):
            many.ensure_many([3, -1])
        assert many.device.stats.reads == 0
