"""Columnar storage and scans.

Sec 3.1 suggests placing *specialized analytical structures* in CXL
memory — "data cubes, materialized tables, denormalized tables".
Column stores are the canonical such structure: a scan touches only
the projected columns' bytes, so the CXL bandwidth tax applies to a
fraction of the row-store traffic. :class:`ColumnTable` stores each
column in its own page range; :class:`ColumnScan` charges page
accesses per column as the scan sweeps.
"""

from __future__ import annotations

from typing import Callable, Iterator

from ..core.engine import ScaleUpEngine
from ..errors import QueryError
from ..storage.file import PageFile
from ..storage.page import PageId
from ..units import PAGE_SIZE
from .operators import CPU_EMIT_NS, CPU_FILTER_NS
from .schema import Schema


class ColumnTable:
    """A table stored column-wise over a shared page file."""

    def __init__(self, name: str, schema: Schema, pagefile: PageFile,
                 fill_factor: float = 0.9) -> None:
        if not 0.0 < fill_factor <= 1.0:
            raise QueryError(f"fill factor must be in (0,1]: {fill_factor}")
        self.name = name
        self.schema = schema
        self.pagefile = pagefile
        usable = int(PAGE_SIZE * fill_factor)
        #: Values that fit one page, per column.
        self.values_per_page = {
            col.name: max(1, usable // col.width_bytes)
            for col in schema.columns
        }
        self._columns: dict[str, list] = {c.name: [] for c in schema.columns}
        self._pages: dict[str, list[PageId]] = {
            c.name: [] for c in schema.columns
        }
        self._row_count = 0

    # -- loading -----------------------------------------------------------

    def bulk_load(self, rows) -> int:
        """Append rows, splitting values into per-column page ranges."""
        loaded = 0
        for row in rows:
            if len(row) != len(self.schema):
                raise QueryError(
                    f"{self.name}: row arity {len(row)} !="
                    f" schema arity {len(self.schema)}"
                )
            for col, value in zip(self.schema.columns, row):
                self._columns[col.name].append(value)
            loaded += 1
        self._row_count += loaded
        # (Re)materialize page ranges per column.
        for col in self.schema.columns:
            values = self._columns[col.name]
            per_page = self.values_per_page[col.name]
            pages = self._pages[col.name]
            needed = -(-len(values) // per_page) if values else 0
            while len(pages) < needed:
                pages.append(self.pagefile.allocate_page().page_id)
        return loaded

    # -- shape --------------------------------------------------------------

    @property
    def row_count(self) -> int:
        """Rows loaded."""
        return self._row_count

    def column_pages(self, column: str) -> list[PageId]:
        """Page ids backing one column."""
        if column not in self._pages:
            raise QueryError(f"no column {column!r} in {self.name}")
        return list(self._pages[column])

    def pages_for(self, columns: list[str]) -> int:
        """Total pages a scan of *columns* must touch."""
        return sum(len(self.column_pages(c)) for c in columns)

    @property
    def total_pages(self) -> int:
        """Pages across every column."""
        return sum(len(p) for p in self._pages.values())

    def page_ids(self) -> list[PageId]:
        """All page ids of the table."""
        return [pid for pages in self._pages.values() for pid in pages]

    def values(self, column: str) -> list:
        """The raw value vector of a column (untimed)."""
        if column not in self._columns:
            raise QueryError(f"no column {column!r} in {self.name}")
        return self._columns[column]


class ColumnScan:
    """Scan of selected columns with an optional single-column filter.

    The filter column is read first (predicate pushdown); pages of the
    projected columns are charged as the scan crosses their page
    boundaries — the payoff is that unprojected columns cost nothing.
    """

    def __init__(self, table: ColumnTable, columns: list[str],
                 predicate_column: str | None = None,
                 predicate: Callable[[object], bool] | None = None
                 ) -> None:
        if (predicate is None) != (predicate_column is None):
            raise QueryError(
                "predicate and predicate_column go together"
            )
        for column in columns:
            if not table.schema.has(column):
                raise QueryError(f"no column {column!r}")
        self.table = table
        self.columns = list(columns)
        self.predicate_column = predicate_column
        self.predicate = predicate
        self._schema = table.schema.project(columns)

    @property
    def schema(self) -> Schema:
        """The projected schema."""
        return self._schema

    def rows(self, engine: ScaleUpEngine) -> Iterator[tuple]:
        """Sweep the selected columns, charging per-column pages."""
        table = self.table
        pool = engine.pool
        clock = pool.clock
        touched = set(self.columns)
        if self.predicate_column is not None:
            touched.add(self.predicate_column)
        # A column's page boundary passes exactly at row multiples of
        # its values-per-page, so the crossing schedule is computed up
        # front instead of re-checking every column on every row. The
        # columns crossing at one row are charged back to back with no
        # clock activity in between. touched_order pins one
        # set-iteration order for the whole sweep, as repeated
        # iteration did before.
        touched_order = list(touched)
        vectors = {c: table.values(c) for c in touched}
        pages = {c: table.column_pages(c) for c in touched}
        vpp = {c: table.values_per_page[c] for c in touched_order}
        next_cross = {c: 0 for c in touched_order}
        next_any = 0
        predicate_vec = (vectors[self.predicate_column]
                         if self.predicate_column else None)
        out_vectors = [vectors[c] for c in self.columns]
        access = pool.access
        cpu = 0.0
        for row in range(table.row_count):
            if row == next_any:
                for column in touched_order:
                    if next_cross[column] == row:
                        access(pages[column][row // vpp[column]],
                               PAGE_SIZE, is_scan=True)
                        next_cross[column] = row + vpp[column]
                next_any = min(next_cross.values())
            if predicate_vec is not None:
                cpu += CPU_FILTER_NS
                if not self.predicate(predicate_vec[row]):
                    continue
            cpu += CPU_EMIT_NS
            if cpu >= 10_000.0:
                clock.advance(cpu)
                cpu = 0.0
            yield tuple(vec[row] for vec in out_vectors)
        clock.advance(cpu)
