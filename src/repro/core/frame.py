"""Buffer frames: a view of one page's row in the residency table."""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import BufferPoolError
from ..storage.page import Page, PageId

if TYPE_CHECKING:  # pragma: no cover
    from .buffer import TieredBufferPool

#: Columns of the pool's residency table, in side-row order.
TIER, DIRTY, LAST_NS, ACC, SLOT = range(5)


def _field(col: int, doc: str) -> property:
    """A read-through property over one column of the viewed row."""
    return property(lambda self: self._row()._get(self.page_id, col), doc=doc)


class Frame:
    """One page resident in one tier of the buffer pool.

    The pool keeps no object per page: a frame is a read/write-through
    view of the page's row in the pool's residency table, built by
    :meth:`TieredBufferPool.frame_of` for whoever asks. It names the
    pool, the page and the residency it was taken of (the install
    stamp of the page's insertion-order entry), and every read checks
    that this residency still stands — a view outliving its page's
    eviction raises :class:`BufferPoolError` instead of showing a
    re-faulted page's row. Reads settle the pool's deferred hit log
    first, so a view never shows a count the pool still owes.
    """

    __slots__ = ("_pool", "page_id", "_born")

    def __init__(self, pool: "TieredBufferPool", page_id: PageId,
                 born: int) -> None:
        self._pool = pool
        self.page_id = page_id
        self._born = born

    def _row(self) -> "TieredBufferPool":
        """The pool, once the viewed residency is known to stand."""
        pool = self._pool
        if pool._lazy_runs:
            pool._drain_lazy()
        if pool._get(self.page_id, TIER) < 0 or pool._ord_born[
                pool._get(self.page_id, SLOT)] != self._born:
            raise BufferPoolError(
                f"stale frame: page {self.page_id} was evicted")
        return pool

    @property
    def page(self) -> Page:
        """The resident page object."""
        return self._row()._page_of(self.page_id)

    tier_index = _field(TIER, "Index of the tier holding the page.")
    last_access_ns = _field(LAST_NS, "Clock value at the latest access.")
    accesses = _field(ACC, "Accesses since the page became resident.")
    dirty = _field(DIRTY, "Whether eviction must write the page back.")

    @dirty.setter
    def dirty(self, value: bool) -> None:
        self._row()._set(self.page_id, DIRTY, bool(value))

    def __repr__(self) -> str:
        flags = "D" if self.dirty else "-"
        return f"Frame(page={self.page_id}, tier={self.tier_index}, {flags})"
