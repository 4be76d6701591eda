"""TPC-C-lite: a faithful-in-shape miniature of TPC-C.

Implements the five transaction profiles with the standard mix and the
standard per-warehouse cardinalities, emitting record-level operations
that engines map onto pages and locks. Not an audited TPC-C — the
point is to reproduce its *access skew and read/write mix*, which is
what the memory-architecture experiments are sensitive to.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ..errors import ConfigError
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


@dataclass
class Transaction:
    """One TPC-C transaction: a profile plus its record operations."""

    txn_id: int
    profile: str
    home_warehouse: int
    ops: list[RecordOp] = field(default_factory=list)
    remote: bool = False  # touches a warehouse other than home

    @property
    def writes(self) -> int:
        """Number of write operations."""
        return sum(1 for op in self.ops if op.write)


class TPCCLite:
    """Generator of TPC-C-lite transactions and page mappings."""

    def __init__(self, num_warehouses: int = 4,
                 remote_probability: float = 0.01,
                 seed: int = 42) -> None:
        if num_warehouses <= 0:
            raise ConfigError("need at least one warehouse")
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
        base = self._page_base.get((op.table, op.warehouse))
        if base is None:
            raise ConfigError(
                f"no table {op.table!r} for warehouse {op.warehouse}"
            )
        return base + op.key // RECORDS_PER_PAGE[op.table]

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
        for _ in range(count):
            yield self.next_transaction()

    def _build_new_order(self, txn_id: int) -> Transaction:
        home = self._warehouse()
        txn = Transaction(txn_id, "new_order", home)
        ops = txn.ops
        district = self._rng.randrange(TABLE_CARDINALITY["district"])
        ops.append(RecordOp("warehouse", home, 0))
        ops.append(RecordOp("district", home, district, write=True))
        ops.append(RecordOp("customer", home, self._customer_key()))
        num_items = self._rng.randint(5, 15)
        for _ in range(num_items):
            item = self._rng.randrange(SHARED_TABLES["item"])
            supply, remote = self._supply_warehouse(home)
            txn.remote = txn.remote or remote
            ops.append(RecordOp("item", -1, item))
            ops.append(RecordOp(
                "stock", supply,
                item % TABLE_CARDINALITY["stock"], write=True,
            ))
            ops.append(RecordOp(
                "order_line", home,
                self._rng.randrange(TABLE_CARDINALITY["order_line"]),
                write=True,
            ))
        ops.append(RecordOp(
            "orders", home,
            self._rng.randrange(TABLE_CARDINALITY["orders"]), write=True,
        ))
        ops.append(RecordOp(
            "new_order", home,
            self._rng.randrange(TABLE_CARDINALITY["new_order"]), write=True,
        ))
        return txn

    def _build_payment(self, txn_id: int) -> Transaction:
        home = self._warehouse()
        txn = Transaction(txn_id, "payment", home)
        district = self._rng.randrange(TABLE_CARDINALITY["district"])
        customer_warehouse, remote = self._supply_warehouse(home)
        txn.remote = remote
        txn.ops.extend([
            RecordOp("warehouse", home, 0, write=True),
            RecordOp("district", home, district, write=True),
            RecordOp("customer", customer_warehouse,
                     self._customer_key(), write=True),
            RecordOp("history", home,
                     self._rng.randrange(TABLE_CARDINALITY["history"]),
                     write=True),
        ])
        return txn

    def _build_order_status(self, txn_id: int) -> Transaction:
        home = self._warehouse()
        txn = Transaction(txn_id, "order_status", home)
        order = self._rng.randrange(TABLE_CARDINALITY["orders"])
        txn.ops.append(RecordOp("customer", home, self._customer_key()))
        txn.ops.append(RecordOp("orders", home, order))
        for line in range(self._rng.randint(5, 15)):
            txn.ops.append(RecordOp(
                "order_line", home,
                (order * 10 + line) % TABLE_CARDINALITY["order_line"],
            ))
        return txn

    def _build_delivery(self, txn_id: int) -> Transaction:
        home = self._warehouse()
        txn = Transaction(txn_id, "delivery", home)
        for district in range(TABLE_CARDINALITY["district"]):
            order = self._rng.randrange(TABLE_CARDINALITY["orders"])
            txn.ops.append(RecordOp(
                "new_order", home,
                order % TABLE_CARDINALITY["new_order"], write=True,
            ))
            txn.ops.append(RecordOp("orders", home, order, write=True))
            txn.ops.append(RecordOp(
                "customer", home,
                (order * 7 + district) % TABLE_CARDINALITY["customer"],
                write=True,
            ))
        return txn

    def _build_stock_level(self, txn_id: int) -> Transaction:
        home = self._warehouse()
        txn = Transaction(txn_id, "stock_level", home)
        district = self._rng.randrange(TABLE_CARDINALITY["district"])
        txn.ops.append(RecordOp("district", home, district))
        base = self._rng.randrange(TABLE_CARDINALITY["order_line"] - 200)
        for offset in range(200):
            txn.ops.append(RecordOp("order_line", home, base + offset))
        for _ in range(20):
            txn.ops.append(RecordOp(
                "stock", home,
                self._rng.randrange(TABLE_CARDINALITY["stock"]),
            ))
        return txn

    # -- adapters ----------------------------------------------------------------

    def flat_trace_blocks(self, num_transactions: int,
                          think_ns: float = 150.0,
                          block_ops: int = BLOCK_OPS
                          ) -> Iterator[AccessBlock]:
        """Flatten transactions into a page access trace of blocks
        (for buffer pool experiments that don't need locking).

        Transaction drawing stays sequential — it is RNG-order
        sensitive — while column assembly is one array build per
        block.
        """
        page_of = self.page_of
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
            for op in txn.ops:
                page_ids.append(page_of(op))
                writes.append(op.write)
            while len(page_ids) >= block_ops:
                yield emit(block_ops)
        if page_ids:
            yield emit(len(page_ids))
