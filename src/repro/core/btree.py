"""A B+tree that spans memory tiers (Sec 3.1 research question).

"Should data structures span conventional and CXL memory?" — this
module answers it executably. A :class:`TieredBTree` stores its nodes
as buffer-pool pages; a placement classifier decides which *levels*
live where. The canonical hybrid puts the small, hot inner levels in
DRAM and the large leaf level in CXL memory: lookups then pay DRAM
latency for every hop but the last, while capacity scales with the
expander.

The tree is bulk-loaded (bottom-up build), supports point lookups, and
charges every node touch to the engine's buffer pool so placement
policy effects are measured, not asserted.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from ..errors import QueryError
from ..storage.page import Page
from ..units import CACHE_LINE, PAGE_SIZE
from .buffer import TieredBufferPool


@dataclass
class _Node:
    """One B+tree node, stored in a page payload."""

    keys: list
    # Inner: child page ids (len(keys)+1). Leaf: values.
    children: list | None = None
    values: list | None = None

    @property
    def is_leaf(self) -> bool:
        return self.values is not None


class TieredBTree:
    """A B+tree whose nodes are buffer-pool pages."""

    def __init__(self, pool: TieredBufferPool, first_page_id: int,
                 fanout: int = 64, leaf_capacity: int = 128) -> None:
        if fanout < 2 or leaf_capacity < 1:
            raise QueryError("fanout must be >= 2, leaf_capacity >= 1")
        self.pool = pool
        self.fanout = fanout
        self.leaf_capacity = leaf_capacity
        self._first_page_id = first_page_id
        self._next_page_id = first_page_id
        self._root_page: int | None = None
        self._height = 0
        self._levels: list[list[int]] = []  # page ids per level, root last
        self._size = 0

    # -- construction -----------------------------------------------------

    def _new_page(self, node: _Node) -> int:
        page_id = self._next_page_id
        self._next_page_id += 1
        page = Page(page_id=page_id, size_bytes=PAGE_SIZE, payload=node)
        # Registered without timing: build cost is charged separately.
        self.pool.register_page(page)
        return page_id

    @classmethod
    def bulk_build(cls, pool: TieredBufferPool, items: list[tuple],
                   first_page_id: int, fanout: int = 64,
                   leaf_capacity: int = 128) -> "TieredBTree":
        """Build bottom-up from (key, value) pairs sorted by key."""
        tree = cls(pool, first_page_id, fanout=fanout,
                   leaf_capacity=leaf_capacity)
        keys = [key for key, _v in items]
        if keys != sorted(keys):
            raise QueryError("bulk_build requires items sorted by key")
        if len(set(keys)) != len(keys):
            raise QueryError("bulk_build requires unique keys")
        tree._size = len(items)

        # Leaf level.
        leaf_ids: list[int] = []
        leaves: list[_Node] = []
        for start in range(0, max(len(items), 1), leaf_capacity):
            chunk = items[start:start + leaf_capacity]
            node = _Node(
                keys=[key for key, _v in chunk],
                values=[value for _k, value in chunk],
            )
            leaves.append(node)
            leaf_ids.append(tree._new_page(node))
        tree._levels = [leaf_ids]

        # Inner levels. Separators are the subtree minima of the
        # children, carried up level by level.
        level_ids = leaf_ids
        level_mins = [node.keys[0] for node in leaves if node.keys]
        while len(level_ids) > 1:
            parent_ids: list[int] = []
            parent_mins: list = []
            for start in range(0, len(level_ids), fanout):
                child_ids = level_ids[start:start + fanout]
                child_mins = level_mins[start:start + fanout]
                node = _Node(keys=child_mins[1:], children=child_ids)
                parent_ids.append(tree._new_page(node))
                parent_mins.append(child_mins[0])
            tree._levels.append(parent_ids)
            level_ids = parent_ids
            level_mins = parent_mins
        tree._root_page = level_ids[0]
        tree._height = len(tree._levels)
        return tree

    # -- shape -------------------------------------------------------------

    @property
    def height(self) -> int:
        """Number of levels (1 = a single leaf)."""
        return self._height

    @property
    def size(self) -> int:
        """Number of stored key/value pairs."""
        return self._size

    @property
    def root_page_id(self) -> int:
        """Page id of the root node."""
        if self._root_page is None:
            raise QueryError("tree is empty; bulk_build it first")
        return self._root_page

    @property
    def leaf_page_ids(self) -> list[int]:
        """Page ids of the leaf level."""
        return list(self._levels[0]) if self._levels else []

    @property
    def inner_page_ids(self) -> list[int]:
        """Page ids of every non-leaf level."""
        return [pid for level in self._levels[1:] for pid in level]

    def page_classifier(self, inner_tier: int = 0,
                        leaf_tier: int = 1):
        """A classifier for StaticPolicy: inner levels to one tier,
        leaves to another — the Sec 3.1 hybrid layout."""
        inner = set(self.inner_page_ids)
        first, last = self._first_page_id, self._next_page_id

        def classify(page_id: int) -> int:
            if first <= page_id < last and page_id in inner:
                return inner_tier
            return leaf_tier
        return classify

    # -- operations ----------------------------------------------------------

    def _node(self, page_id: int) -> _Node:
        page = self.pool.get_page(page_id)
        node = page.payload
        if not isinstance(node, _Node):
            raise QueryError(f"page {page_id} is not a B+tree node")
        return node

    def lookup(self, key) -> object | None:
        """Point lookup; charges one pool access per level."""
        page_id = self.root_page_id
        for _level in range(self._height):
            self.pool.access(page_id, nbytes=CACHE_LINE)
            node = self._node(page_id)
            if node.is_leaf:
                index = bisect.bisect_left(node.keys, key)
                if index < len(node.keys) and node.keys[index] == key:
                    return node.values[index]
                return None
            index = bisect.bisect_right(node.keys, key)
            page_id = node.children[index]
        raise QueryError("malformed tree: no leaf reached")

    def lookup_cost_ns(self, key) -> float:
        """Like :meth:`lookup` but returns the charged time."""
        start = self.pool.clock.now
        self.lookup(key)
        return self.pool.clock.now - start

