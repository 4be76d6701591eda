"""Physical operators: scan, filter, project, hash aggregation.

Operators pull rows from children and charge costs to the engine they
execute on: page accesses go through the tiered buffer pool (so data
placement matters — the whole point), CPU work is charged per row in
per-page batches to keep the interpreter overhead out of the measured
signal.
"""

from __future__ import annotations

from typing import Callable, Iterator, Protocol

from ..core.engine import ScaleUpEngine
from ..errors import QueryError
from ..sim.interconnect import AccessPath
from ..units import PAGE_SIZE
from .schema import Column, ColumnType, Schema
from .table import Table

#: CPU costs per row, in ns (calibrated to a few ops/cycle engine).
CPU_FILTER_NS = 3.0
CPU_PROJECT_NS = 1.5
CPU_AGG_NS = 5.0
CPU_EMIT_NS = 1.0

#: Rows whose aggregation state fits the CPU cache for free; beyond
#: this the hash table spills into memory and pays latency per probe.
LLC_RESIDENT_GROUPS = 4_096

#: Out-of-order CPUs keep several random loads in flight, so the
#: *effective* per-probe latency is the raw latency divided by this
#: memory-level-parallelism factor.
MEMORY_LEVEL_PARALLELISM = 4.0

Predicate = Callable[[tuple], bool]


class Operator(Protocol):
    """Interface every physical operator implements."""

    @property
    def schema(self) -> Schema:
        """Output schema."""

    def rows(self, engine: ScaleUpEngine) -> Iterator[tuple]:
        """Execute against an engine, yielding output rows."""


def collect(op: "Operator", engine: ScaleUpEngine
            ) -> tuple[list[tuple], float]:
    """Run an operator to completion; returns (rows, elapsed ns).

    Also the instrumentation chokepoint for the query layer: the run
    is wrapped in a trace span and accounted under the
    ``operator.<ClassName>`` metrics namespace, without touching the
    per-row loops inside the operators themselves.
    """
    ctx = engine.ctx
    name = type(op).__name__
    start = engine.pool.clock.now
    with ctx.span(f"operator:{name}", cat="query"):
        out = list(op.rows(engine))
    elapsed = engine.pool.clock.now - start
    scope = ctx.metrics.scope(f"operator.{name}")
    scope.incr("invocations")
    scope.incr("rows", len(out))
    scope.incr("total_ns", elapsed)
    if elapsed > 0:
        scope.observe("time_ns", elapsed)
    return out, elapsed


class TableScan:
    """Full scan with optional pushed-down predicate and projection."""

    def __init__(self, table: Table, predicate: Predicate | None = None,
                 projection: list[str] | None = None) -> None:
        self.table = table
        self.predicate = predicate
        self.projection = projection
        if projection is None:
            self._schema = table.schema
            self._proj_idx: list[int] | None = None
        else:
            self._schema = table.schema.project(projection)
            self._proj_idx = [table.schema.index_of(n) for n in projection]

    @property
    def schema(self) -> Schema:
        """Output schema (after projection)."""
        return self._schema

    def rows(self, engine: ScaleUpEngine) -> Iterator[tuple]:
        """Scan pages through the buffer pool, charging per-row CPU."""
        pool = engine.pool
        clock = pool.clock
        per_row_cpu = CPU_FILTER_NS if self.predicate else CPU_EMIT_NS
        # One access per page, then its rows' CPU: rows are yielded
        # between pages, so parent operators may charge CPU mid-stream.
        access = pool.access
        for page_id, records in self.table.pages():
            access(page_id, PAGE_SIZE, is_scan=True)
            post = len(records) * per_row_cpu
            if post:
                clock.advance(post)
            for row in records:
                if self.predicate is not None and not self.predicate(row):
                    continue
                if self._proj_idx is not None:
                    yield tuple(row[i] for i in self._proj_idx)
                else:
                    yield row


class Filter:
    """Row filter over any child operator."""

    def __init__(self, child: Operator, predicate: Predicate) -> None:
        self.child = child
        self.predicate = predicate

    @property
    def schema(self) -> Schema:
        """Same schema as the child."""
        return self.child.schema

    def rows(self, engine: ScaleUpEngine) -> Iterator[tuple]:
        """Yield child rows passing the predicate."""
        clock = engine.pool.clock
        batch_cpu = 0.0
        for row in self.child.rows(engine):
            batch_cpu += CPU_FILTER_NS
            if batch_cpu >= 10_000.0:
                clock.advance(batch_cpu)
                batch_cpu = 0.0
            if self.predicate(row):
                yield row
        clock.advance(batch_cpu)


class Project:
    """Column projection over any child operator."""

    def __init__(self, child: Operator, columns: list[str]) -> None:
        self.child = child
        self._schema = child.schema.project(columns)
        self._indices = [child.schema.index_of(n) for n in columns]

    @property
    def schema(self) -> Schema:
        """The projected schema."""
        return self._schema

    def rows(self, engine: ScaleUpEngine) -> Iterator[tuple]:
        """Yield projected rows."""
        clock = engine.pool.clock
        batch_cpu = 0.0
        for row in self.child.rows(engine):
            batch_cpu += CPU_PROJECT_NS
            if batch_cpu >= 10_000.0:
                clock.advance(batch_cpu)
                batch_cpu = 0.0
            yield tuple(row[i] for i in self._indices)
        clock.advance(batch_cpu)


#: Supported aggregate functions.
AGG_FUNCS = {"sum", "count", "min", "max", "avg"}


class HashAggregate:
    """Group-by aggregation with a hash table in work memory.

    ``aggs`` is a list of (output name, function, input column). When
    the number of groups exceeds the cache-resident threshold and a
    ``work_path`` is given, every input row pays one work-memory
    probe latency — this is how "hashing at rack scale" (Sec 3.3)
    becomes measurably sensitive to where work memory lives.
    """

    def __init__(self, child: Operator, group_by: list[str],
                 aggs: list[tuple[str, str, str | None]],
                 work_path: AccessPath | None = None) -> None:
        for _out, func, _col in aggs:
            if func not in AGG_FUNCS:
                raise QueryError(f"unknown aggregate {func!r}")
        self.child = child
        self.group_by = group_by
        self.aggs = aggs
        self.work_path = work_path
        self._group_idx = [child.schema.index_of(n) for n in group_by]
        self._agg_idx = [
            child.schema.index_of(col) if col is not None else -1
            for _out, _func, col in aggs
        ]
        columns = [child.schema.columns[i] for i in self._group_idx]
        columns += [Column(out, ColumnType.FLOAT) for out, _f, _c in aggs]
        self._schema = Schema(columns)

    @property
    def schema(self) -> Schema:
        """Group-by columns followed by aggregate outputs."""
        return self._schema

    def rows(self, engine: ScaleUpEngine) -> Iterator[tuple]:
        """Consume the child fully, then emit one row per group."""
        clock = engine.pool.clock
        groups: dict[tuple, list] = {}
        input_rows = 0
        for row in self.child.rows(engine):
            input_rows += 1
            key = tuple(row[i] for i in self._group_idx)
            state = groups.get(key)
            if state is None:
                state = [self._init_state(func) for _o, func, _c in self.aggs]
                groups[key] = state
            for slot, (idx, (_out, func, _col)) in enumerate(
                    zip(self._agg_idx, self.aggs)):
                value = row[idx] if idx >= 0 else 1
                self._fold(state, slot, func, value)
        cpu = input_rows * (CPU_AGG_NS + 2.5 * len(self.aggs))
        if self.work_path is not None and \
                len(groups) > LLC_RESIDENT_GROUPS:
            cpu += input_rows * (self.work_path.timing().read_latency_ns
                                 / MEMORY_LEVEL_PARALLELISM)
        clock.advance(cpu + len(groups) * CPU_EMIT_NS)
        for key, state in groups.items():
            outs = tuple(
                self._finish(state[slot], func)
                for slot, (_out, func, _col) in enumerate(self.aggs)
            )
            yield key + outs

    @staticmethod
    def _init_state(func: str):
        if func == "min":
            return float("inf")
        if func == "max":
            return float("-inf")
        if func == "avg":
            return [0.0, 0]
        return 0.0

    @staticmethod
    def _fold(state: list, slot: int, func: str, value) -> None:
        if func in ("sum",):
            state[slot] += value
        elif func == "count":
            state[slot] += 1
        elif func == "min":
            state[slot] = min(state[slot], value)
        elif func == "max":
            state[slot] = max(state[slot], value)
        else:  # avg
            state[slot][0] += value
            state[slot][1] += 1

    @staticmethod
    def _finish(state, func: str):
        if func == "avg":
            total, count = state
            return total / count if count else 0.0
        return state
