"""Page files: the persistent home of database pages.

A :class:`PageFile` owns a contiguous range of page ids on one storage
device. It is the *backing store* a buffer pool faults pages in from
and flushes dirty pages back to. Page payloads are kept in a dict so
the query layer can round-trip records through "disk".
"""

from __future__ import annotations

from ..errors import StorageError
from ..units import PAGE_SIZE
from .disk import StorageDevice
from .page import Page, PageId


class PageFile:
    """A growable array of pages on a storage device."""

    def __init__(self, device: StorageDevice, name: str = "tablespace",
                 page_size: int = PAGE_SIZE) -> None:
        if page_size <= 0:
            raise StorageError("page size must be positive")
        self.device = device
        self.name = name
        self.page_size = page_size
        self._pages: dict[PageId, Page] = {}
        self._next_id: PageId = 0

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

    def ensure(self, page_id: PageId) -> Page:
        """Materialize a page at a specific id if absent.

        Lets a buffer pool treat the file as the home of its whole
        page-id space without pre-allocating it densely.
        """
        if page_id < 0:
            raise StorageError(f"invalid page id {page_id}")
        page = self._pages.get(page_id)
        if page is None:
            page = Page(page_id=page_id, size_bytes=self.page_size)
            self._pages[page_id] = page
            self._next_id = max(self._next_id, page_id + 1)
        return page

    def ensure_many(self, page_ids: list[PageId]) -> list[Page]:
        """:meth:`ensure` for a run of ids, in order — one call per
        fault chunk instead of one per page. A run whose pages are all
        in the file already (every re-fault) is one C-level pass; a
        run with an absent id takes the per-page path."""
        try:
            return list(map(self._pages.__getitem__, page_ids))
        except KeyError:
            return [self.ensure(page_id) for page_id in page_ids]

    def contains(self, page_id: PageId) -> bool:
        """Whether the page id exists in this file."""
        return page_id in self._pages

    def page_ids(self) -> list[PageId]:
        """All page ids, in allocation order."""
        return sorted(self._pages)

    # -- I/O ---------------------------------------------------------------

    def _lookup(self, page_id: PageId) -> Page:
        page = self._pages.get(page_id)
        if page is None:
            raise StorageError(f"{self.name}: no page {page_id}")
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
        self._lookup(page.page_id)
        self._pages[page.page_id] = page
        return self.device.write_time(self.page_size)

    def __repr__(self) -> str:
        return f"PageFile({self.name!r}, pages={self.page_count})"
