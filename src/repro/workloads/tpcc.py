"""TPC-C-lite: a faithful-in-shape miniature of TPC-C.

Implements the five transaction profiles with the standard mix and the
standard per-warehouse cardinalities, emitting record-level operations
that engines map onto pages and locks. Not an audited TPC-C — the
point is to reproduce its *access skew and read/write mix*, which is
what the memory-architecture experiments are sensitive to.

A transaction holds its records as columns (table, warehouse, key,
write), drawn on one pinned ``random.Random`` stream; no per-record
object is built unless someone reads :attr:`Transaction.ops`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import compress
from operator import not_
from typing import Iterable, Iterator

import numpy as np

from ..errors import ConfigError, require_count
from ..units import CACHE_LINE
from .traces import BLOCK_OPS, AccessBlock

#: Records per table per warehouse (item is shared across warehouses).
TABLE_CARDINALITY = {
    "warehouse": 1,
    "district": 10,
    "customer": 30_000,
    "stock": 100_000,
    "orders": 30_000,
    "order_line": 300_000,
    "history": 30_000,
    "new_order": 9_000,
}

#: Shared (non-warehouse-partitioned) tables.
SHARED_TABLES = {"item": 100_000}

#: Records that fit one 4 KiB page, per table.
RECORDS_PER_PAGE = {
    "warehouse": 4,
    "district": 16,
    "customer": 6,
    "stock": 12,
    "orders": 48,
    "order_line": 72,
    "history": 96,
    "new_order": 512,
    "item": 48,
}

#: Standard transaction mix.
TRANSACTION_MIX = [
    ("new_order", 0.45),
    ("payment", 0.43),
    ("order_status", 0.04),
    ("delivery", 0.04),
    ("stock_level", 0.04),
]


@dataclass(frozen=True)
class RecordOp:
    """One record-level read or write inside a transaction."""

    table: str
    warehouse: int  # -1 for shared tables
    key: int
    write: bool = False


class Transaction:
    """One TPC-C transaction: a profile plus its records, held as four
    parallel columns. ``ops`` is a view: reading it builds the
    :class:`RecordOp` tuple, assigning it replaces the columns. Columns
    are replaced whole, never edited in place, so the lock set is
    derived once and every engine reads the same one."""

    __slots__ = ("txn_id", "profile", "home_warehouse", "remote",
                 "tables", "warehouses", "keys", "writes", "_locks")

    def __init__(self, txn_id: int, profile: str, home_warehouse: int,
                 ops: Iterable[RecordOp] = (), remote: bool = False) -> None:
        self.txn_id, self.profile = txn_id, profile
        self.home_warehouse = home_warehouse
        self.remote = remote  # touches a warehouse other than home
        self._set_columns([], [], [], [])
        if ops:
            self.ops = ops

    @property
    def ops(self) -> tuple[RecordOp, ...]:
        """The records, built on each read."""
        return tuple(map(RecordOp, self.tables, self.warehouses,
                         self.keys, self.writes))

    @ops.setter
    def ops(self, ops: Iterable[RecordOp]) -> None:
        ops = list(ops)
        self._set_columns([op.table for op in ops],
                          [op.warehouse for op in ops],
                          [op.key for op in ops],
                          [bool(op.write) for op in ops])

    def _set_columns(self, tables: list[str], warehouses: list[int],
                     keys: list[int], writes: list[bool]) -> None:
        self.tables, self.warehouses = tables, warehouses
        self.keys, self.writes, self._locks = keys, writes, None

    @property
    def lock_set(self) -> tuple[list[tuple], list[tuple]]:
        """(exclusive, shared) record lock keys ``(table, warehouse,
        key)`` in record order. A key also written may sit in both; its
        shared entry then changes no wait and no hold."""
        if self._locks is None:
            records = list(zip(self.tables, self.warehouses, self.keys))
            self._locks = (list(compress(records, self.writes)),
                           list(compress(records, map(not_, self.writes))))
        return self._locks


class TPCCLite:
    """Generator of TPC-C-lite transactions and page mappings."""

    def __init__(self, num_warehouses: int = 4,
                 remote_probability: float = 0.01,
                 seed: int = 42) -> None:
        require_count("num_warehouses", num_warehouses, 1)
        if not 0.0 <= remote_probability <= 1.0:
            raise ConfigError("remote_probability must be in [0,1]")
        self.num_warehouses = num_warehouses
        self.remote_probability = remote_probability
        self._rng = random.Random(seed)
        self._txn_counter = 0
        self._page_base: dict[tuple[str, int], int] = {}
        self._build_page_map()

    # -- page layout --------------------------------------------------------

    def _build_page_map(self) -> None:
        cursor = 0
        for warehouse in range(self.num_warehouses):
            for table, cardinality in TABLE_CARDINALITY.items():
                pages = -(-cardinality // RECORDS_PER_PAGE[table])
                self._page_base[(table, warehouse)] = cursor
                cursor += pages
        for table, cardinality in SHARED_TABLES.items():
            pages = -(-cardinality // RECORDS_PER_PAGE[table])
            self._page_base[(table, -1)] = cursor
            cursor += pages
        self._total_pages = cursor

    @property
    def total_pages(self) -> int:
        """Total pages across all tables and warehouses."""
        return self._total_pages

    def page_of(self, op: RecordOp) -> int:
        """Global page id holding a record."""
        return self._page(op.table, op.warehouse, op.key)

    def _page(self, table: str, warehouse: int, key: int) -> int:
        base = self._page_base.get((table, warehouse))
        if base is None:
            raise ConfigError(f"no table {table!r} for warehouse {warehouse}")
        return base + key // RECORDS_PER_PAGE[table]

    # -- transaction profiles ----------------------------------------------------

    def _warehouse(self) -> int:
        return self._rng.randrange(self.num_warehouses)

    def _customer_key(self) -> int:
        # NURand-ish skew: favour a hot subset of customers.
        if self._rng.random() < 0.6:
            return self._rng.randrange(TABLE_CARDINALITY["customer"] // 10)
        return self._rng.randrange(TABLE_CARDINALITY["customer"])

    def _supply_warehouse(self, home: int) -> tuple[int, bool]:
        if self.num_warehouses > 1 and \
                self._rng.random() < self.remote_probability:
            other = self._rng.randrange(self.num_warehouses - 1)
            if other >= home:
                other += 1
            return other, True
        return home, False

    def next_transaction(self) -> Transaction:
        """Draw one transaction according to the standard mix."""
        roll = self._rng.random()
        acc = 0.0
        profile = TRANSACTION_MIX[-1][0]
        for name, weight in TRANSACTION_MIX:
            acc += weight
            if roll < acc:
                profile = name
                break
        builder = getattr(self, f"_build_{profile}")
        self._txn_counter += 1
        return builder(self._txn_counter)

    def transactions(self, count: int) -> Iterator[Transaction]:
        """A stream of *count* transactions."""
        require_count("count", count, 0)
        return (self.next_transaction() for _ in range(count))

    # Each builder draws its records' keys in record order (the draws
    # are the pinned stream) and assigns the transaction's columns.

    def _build_new_order(self, txn_id: int) -> Transaction:
        home = self._warehouse()
        txn = Transaction(txn_id, "new_order", home)
        warehouses = [home, home, home]
        keys = [0, self._rng.randrange(TABLE_CARDINALITY["district"]),
                self._customer_key()]
        items = self._rng.randint(5, 15)
        for _ in range(items):
            item = self._rng.randrange(SHARED_TABLES["item"])
            supply, remote = self._supply_warehouse(home)
            txn.remote = txn.remote or remote
            warehouses += (-1, supply, home)
            keys += (item, item % TABLE_CARDINALITY["stock"],
                     self._rng.randrange(TABLE_CARDINALITY["order_line"]))
        warehouses += (home, home)
        keys += (self._rng.randrange(TABLE_CARDINALITY["orders"]),
                 self._rng.randrange(TABLE_CARDINALITY["new_order"]))
        txn._set_columns(["warehouse", "district", "customer"]
                         + ["item", "stock", "order_line"] * items
                         + ["orders", "new_order"], warehouses, keys,
                         [False, True, False] + [False, True, True] * items
                         + [True, True])
        return txn

    def _build_payment(self, txn_id: int) -> Transaction:
        home = self._warehouse()
        txn = Transaction(txn_id, "payment", home)
        district = self._rng.randrange(TABLE_CARDINALITY["district"])
        customer_home, txn.remote = self._supply_warehouse(home)
        keys = [0, district, self._customer_key(),
                self._rng.randrange(TABLE_CARDINALITY["history"])]
        txn._set_columns(["warehouse", "district", "customer", "history"],
                         [home, home, customer_home, home], keys, [True] * 4)
        return txn

    def _build_order_status(self, txn_id: int) -> Transaction:
        home = self._warehouse()
        txn = Transaction(txn_id, "order_status", home)
        order = self._rng.randrange(TABLE_CARDINALITY["orders"])
        keys = [self._customer_key(), order]
        lines = self._rng.randint(5, 15)
        keys += [(order * 10 + line) % TABLE_CARDINALITY["order_line"]
                 for line in range(lines)]
        txn._set_columns(["customer", "orders"] + ["order_line"] * lines,
                         [home] * (2 + lines), keys, [False] * (2 + lines))
        return txn

    def _build_delivery(self, txn_id: int) -> Transaction:
        home = self._warehouse()
        txn = Transaction(txn_id, "delivery", home)
        keys: list[int] = []
        for district in range(TABLE_CARDINALITY["district"]):
            order = self._rng.randrange(TABLE_CARDINALITY["orders"])
            keys += (order % TABLE_CARDINALITY["new_order"], order,
                     (order * 7 + district) % TABLE_CARDINALITY["customer"])
        txn._set_columns(["new_order", "orders", "customer"] * 10,
                         [home] * 30, keys, [True] * 30)
        return txn

    def _build_stock_level(self, txn_id: int) -> Transaction:
        home = self._warehouse()
        txn = Transaction(txn_id, "stock_level", home)
        keys = [self._rng.randrange(TABLE_CARDINALITY["district"])]
        base = self._rng.randrange(TABLE_CARDINALITY["order_line"] - 200)
        keys += range(base, base + 200)
        keys += [self._rng.randrange(TABLE_CARDINALITY["stock"])
                 for _ in range(20)]
        txn._set_columns(["district"] + ["order_line"] * 200 + ["stock"] * 20,
                         [home] * 221, keys, [False] * 221)
        return txn

    # -- adapters ----------------------------------------------------------------

    def flat_trace_blocks(self, num_transactions: int,
                          think_ns: float = 150.0,
                          block_ops: int = BLOCK_OPS
                          ) -> Iterator[AccessBlock]:
        """Flatten transactions into a page access trace of blocks
        (for buffer pool experiments that don't need locking): drawing
        is sequential, column assembly one array build per block."""
        page = self._page
        page_ids: list[int] = []
        writes: list[bool] = []

        def emit(upto: int) -> AccessBlock:
            block = AccessBlock(
                page_id=np.array(page_ids[:upto], dtype=np.int64),
                write=np.array(writes[:upto], dtype=np.bool_),
                is_scan=np.zeros(upto, np.bool_),
                nbytes=np.full(upto, CACHE_LINE, np.int64),
                think_ns=np.full(upto, think_ns, np.float64),
            )
            del page_ids[:upto], writes[:upto]
            return block

        for txn in self.transactions(num_transactions):
            page_ids += map(page, txn.tables, txn.warehouses, txn.keys)
            writes += txn.writes
            while len(page_ids) >= block_ops:
                yield emit(block_ops)
        if page_ids:
            yield emit(len(page_ids))
