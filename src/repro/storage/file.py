"""Page files: the persistent home of database pages.

A :class:`PageFile` owns a set of page ids on one storage device: the
*backing store* a buffer pool faults pages in from and flushes dirty
pages back to. A page is an id until someone reads it — ``ensure``
registers ids, and the blank :class:`Page` is built on its first read
— and payloads are kept so the query layer can round-trip records.
"""

from __future__ import annotations

from operator import index

import numpy as np

from ..errors import StorageError
from ..units import PAGE_SIZE
from .disk import StorageDevice
from .page import Page, PageId


class PageFile:
    """A growable array of pages on a storage device.

    Ids are registered and never removed, so the file keeps a
    watermark below which every id is registered: a pool's re-faults
    register nothing new, and :meth:`ensure_many` answers them from
    the column's ``min`` and ``max`` alone.
    """

    def __init__(self, device: StorageDevice, name: str = "tablespace",
                 page_size: int = PAGE_SIZE) -> None:
        if page_size <= 0:
            raise StorageError("page size must be positive")
        self.device = device
        self.name = name
        self.page_size = page_size
        self._pages: dict[PageId, Page | None] = {}  # None: never read
        self._next_id: PageId = 0
        # Every id below it is registered; ids are never removed, so
        # it only climbs, one step per id registered behind it (or at
        # once: with no gap, every id below _next_id is registered).
        self._dense: PageId = 0

    # -- structure ----------------------------------------------------------

    @property
    def page_count(self) -> int:
        """Number of allocated pages."""
        return len(self._pages)

    @property
    def size_bytes(self) -> int:
        """Total on-disk footprint."""
        return self.page_count * self.page_size

    def allocate_page(self) -> Page:
        """Append a fresh page and return it."""
        page = Page(page_id=self._next_id, size_bytes=self.page_size)
        self._pages[page.page_id] = page
        self._next_id += 1
        return page

    def allocate_pages(self, count: int) -> list[Page]:
        """Append *count* fresh pages."""
        if count < 0:
            raise StorageError(f"cannot allocate {count} pages")
        return [self.allocate_page() for _ in range(count)]

    def ensure(self, page_id: PageId) -> None:
        """Register one page id if absent (see :meth:`ensure_many`)."""
        if type(page_id) is not int or page_id not in self._pages:
            self.ensure_many((page_id,))

    def ensure_many(self, page_ids) -> None:
        """Register the absent ids of *page_ids* (an iterable or an
        integer array), building no page: the file is the home of a
        pool's whole page-id space. Ids are integers >= 0, not bools,
        kept as ints; nothing is registered when one is refused.

        A re-fault registers nothing new: an integer column that lies
        wholly below the watermark (every id under it is registered)
        returns after its ``min`` and ``max``, without a set
        difference."""
        if (type(page_ids) is np.ndarray and page_ids.ndim == 1
                and page_ids.dtype.kind in "iu" and page_ids.shape[0]
                and page_ids.min() >= 0 and page_ids.max() < self._dense):
            return
        ids = page_ids.tolist() if hasattr(page_ids, "tolist") \
            else list(page_ids)
        if not {int}.issuperset(map(type, ids)):
            bad = [i for i in ids if type(i) is bool
                   or not hasattr(i, "__index__")]
            if bad:
                raise StorageError(f"invalid page id {bad[0]!r}")
            ids = list(map(index, ids))
        if ids and min(ids) < 0:
            raise StorageError(f"invalid page id {min(ids)}")
        pages = self._pages
        pages.update(dict.fromkeys(set(ids).difference(pages)))
        self._next_id = max(self._next_id, max(ids, default=-1) + 1)
        dense = self._next_id
        if len(pages) != dense:          # a gap: climb to it
            dense = self._dense
            while dense in pages:
                dense += 1
        self._dense = dense

    def contains(self, page_id: PageId) -> bool:
        """Whether the page id exists in this file."""
        return page_id in self._pages

    def page_ids(self) -> list[PageId]:
        """All page ids, in allocation order."""
        return sorted(self._pages)

    # -- I/O ---------------------------------------------------------------

    def _lookup(self, page_id: PageId) -> Page:
        """The page at *page_id*, built blank on its first read."""
        pages = self._pages
        page = pages.get(page_id)
        if page is None:
            if page_id not in pages:
                raise StorageError(f"{self.name}: no page {page_id}")
            page = pages[page_id] = Page(page_id=page_id,
                                         size_bytes=self.page_size)
        return page

    def install(self, page: Page) -> Page:
        """Place an externally built page at its id (no I/O charged).

        Used by bulk loaders (e.g. B+tree construction) that create
        page payloads directly.
        """
        if page.page_id < 0:
            raise StorageError(f"invalid page id {page.page_id}")
        self._pages[page.page_id] = page
        self._next_id = max(self._next_id, page.page_id + 1)
        return page

    def peek(self, page_id: PageId) -> Page:
        """Return the page object without performing (or charging) any
        I/O — used when the bytes are known to already be in memory,
        e.g. when a warm engine adopts pool-resident pages."""
        return self._lookup(page_id)

    def read_page(self, page_id: PageId) -> tuple[Page, float]:
        """Read a page; returns (page, I/O time in ns)."""
        page = self._lookup(page_id)
        return page, self.device.read_time(self.page_size)

    def write_page(self, page: Page) -> float:
        """Write a page back; returns the I/O time in ns."""
        if page.page_id not in self._pages:
            raise StorageError(f"{self.name}: no page {page.page_id}")
        self._pages[page.page_id] = page
        return self.device.write_time(self.page_size)

    def __repr__(self) -> str:
        return f"PageFile({self.name!r}, pages={self.page_count})"

