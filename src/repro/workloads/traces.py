"""Access traces: the lingua franca between workloads and engines.

A trace is any iterable of :class:`Access` records *or*
:class:`AccessBlock` chunks (the two may be mixed). Scalar generators
yield one :class:`Access` per op; the block-emitting variants
(``ycsb_blocks``, ``scan_blocks``, ...) yield structure-of-arrays
chunks of ~:data:`BLOCK_OPS` accesses, which the engine consumes
without materialising per-access Python objects. Both forms describe
the same elementwise sequence — ``blocks_to_accesses`` /
``accesses_to_blocks`` convert losslessly — and both stay memory-flat
for multi-million-access experiments.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..units import CACHE_LINE

#: Accesses per emitted block, and how far ``accesses_to_blocks`` (so
#: ``ScaleUpEngine.run``) pulls a scalar generator ahead of the clock.
BLOCK_OPS = 4096


@dataclass(frozen=True, slots=True)
class Access:
    """One logical page access issued by a workload.

    ``think_ns`` is CPU work attributed to the access (modelling
    compute between memory touches — what makes a workload memory- or
    compute-bound). ``nbytes`` is how much of the page the access
    actually touches (a point lookup touches a line; a scan touches
    the full page). ``slots=True`` because multi-million-access traces
    allocate one of these per op.
    """

    page_id: int
    write: bool = False
    is_scan: bool = False
    nbytes: int = CACHE_LINE
    think_ns: float = 0.0


@dataclass(frozen=True, slots=True)
class AccessBlock:
    """A structure-of-arrays chunk of consecutive trace accesses.

    Five parallel numpy columns, one row per access: ``page_id``
    (int64), ``write``/``is_scan`` (bool), ``nbytes`` (int64),
    ``think_ns`` (float64). Blocks are immutable by convention —
    consumers must never write into the columns, so generators are
    free to hand out views of larger arrays.
    """

    page_id: np.ndarray
    write: np.ndarray
    is_scan: np.ndarray
    nbytes: np.ndarray
    think_ns: np.ndarray

    def __len__(self) -> int:
        return self.page_id.shape[0]

    @classmethod
    def from_columns(cls, page_id, write, is_scan, nbytes,
                     think_ns) -> "AccessBlock":
        """Build a block, normalising column dtypes."""
        return cls(
            page_id=np.ascontiguousarray(page_id, dtype=np.int64),
            write=np.ascontiguousarray(write, dtype=np.bool_),
            is_scan=np.ascontiguousarray(is_scan, dtype=np.bool_),
            nbytes=np.ascontiguousarray(nbytes, dtype=np.int64),
            think_ns=np.ascontiguousarray(think_ns, dtype=np.float64),
        )

    @classmethod
    def from_accesses(cls, accesses: Sequence[Access]) -> "AccessBlock":
        """Pack scalar accesses into one block (lossless)."""
        n = len(accesses)
        return cls(
            page_id=np.fromiter((a.page_id for a in accesses),
                                np.int64, count=n),
            write=np.fromiter((a.write for a in accesses),
                              np.bool_, count=n),
            is_scan=np.fromiter((a.is_scan for a in accesses),
                                np.bool_, count=n),
            nbytes=np.fromiter((a.nbytes for a in accesses),
                               np.int64, count=n),
            think_ns=np.fromiter((a.think_ns for a in accesses),
                                 np.float64, count=n),
        )

    def slice(self, start: int, stop: int) -> "AccessBlock":
        """A zero-copy view of rows ``[start, stop)``."""
        return AccessBlock(
            page_id=self.page_id[start:stop],
            write=self.write[start:stop],
            is_scan=self.is_scan[start:stop],
            nbytes=self.nbytes[start:stop],
            think_ns=self.think_ns[start:stop],
        )

    def accesses(self) -> Iterator[Access]:
        """Unpack into scalar :class:`Access` records (lossless)."""
        page_id = self.page_id.tolist()
        write = self.write.tolist()
        is_scan = self.is_scan.tolist()
        nbytes = self.nbytes.tolist()
        think_ns = self.think_ns.tolist()
        for i in range(len(page_id)):
            yield Access(page_id[i], write[i], is_scan[i], nbytes[i],
                         think_ns[i])

    def segment_bounds(self) -> list[int]:
        """Boundaries of the maximal same-shape runs in this block.

        Returns ``[0, b1, ..., n]`` such that every half-open segment
        holds one access shape (nbytes, write, scan flag, think time)
        — the unit the engine hands to the pool's batched lane. One
        vectorised boundary scan over a packed shape key replaces the
        per-access Python peek loop. ``think_ns`` is compared by bit
        pattern, which can only split runs the scalar peek would have
        merged (``-0.0`` vs ``0.0``) — splitting is always exact.
        """
        n = self.page_id.shape[0]
        if n <= 1:
            return [0, n] if n else [0]
        key = self.nbytes * 4 + self.write * 2 + self.is_scan
        think_bits = self.think_ns.view(np.int64)
        change = (key[1:] != key[:-1]) \
            | (think_bits[1:] != think_bits[:-1])
        cuts = np.flatnonzero(change)
        return [0, *(cuts + 1).tolist(), n]


# -- lossless adapters -------------------------------------------------------


def blocks_to_accesses(trace) -> Iterator[Access]:
    """Expand a (possibly mixed) trace into scalar accesses."""
    for item in trace:
        if type(item) is AccessBlock:
            yield from item.accesses()
        else:
            yield item


def accesses_to_blocks(trace, block_ops: int = BLOCK_OPS
                       ) -> Iterator[AccessBlock]:
    """Pack a (possibly mixed) trace into blocks of ``block_ops``.

    Blocks already present in the trace pass through unchanged (no
    re-chunking); buffered scalar accesses are flushed ahead of them
    so elementwise order is preserved.
    """
    buffer: list[Access] = []
    for item in trace:
        if type(item) is AccessBlock:
            if buffer:
                yield AccessBlock.from_accesses(buffer)
                buffer.clear()
            if len(item):
                yield item
            continue
        buffer.append(item)
        if len(buffer) >= block_ops:
            yield AccessBlock.from_accesses(buffer)
            buffer.clear()
    if buffer:
        yield AccessBlock.from_accesses(buffer)


def whole_trace_block(trace) -> AccessBlock | None:
    """Pack an all-scalar list trace into one block, or ``None``.

    The fast-path twin of an unchunked ``accesses_to_blocks`` for the
    common case — a materialised list of :class:`Access` — it skips
    the per-item buffering loop and columnarises directly. The type
    scan (one C-level pass) keeps the semantics exact: any list that
    mixes in blocks or duck-typed accesses returns ``None`` and the
    caller falls back to the generic adapter, preserving per-block run
    boundaries.
    """
    if (type(trace) is not list or not trace
            or set(map(type, trace)) != {Access}):
        return None
    return AccessBlock.from_accesses(trace)


class _BlockCursor:
    """Pull-based cursor over one trace, normalised to block views.

    Scalar :class:`Access` items are tolerated (wrapped as one-row
    blocks) so the block-aware combinators accept mixed traces.
    """

    __slots__ = ("_iterator", "block", "pos", "done")

    def __init__(self, trace, first=None) -> None:
        self._iterator = iter(trace)
        self.block: AccessBlock | None = None
        self.pos = 0
        self.done = False
        if first is not None:
            self._install(first)

    def _install(self, item) -> None:
        if type(item) is not AccessBlock:
            item = AccessBlock.from_accesses([item])
        self.block = item
        self.pos = 0

    def buffered(self) -> int:
        """Rows left in the current block (0 means a refill is due)."""
        if self.block is None:
            return 0
        return len(self.block) - self.pos

    def refill(self) -> bool:
        """Ensure at least one buffered row; False once exhausted."""
        while self.buffered() == 0:
            if self.done:
                return False
            item = next(self._iterator, None)
            if item is None:
                self.done = True
                return False
            self._install(item)
        return True

    def take(self, count: int) -> tuple[list[AccessBlock], int]:
        """Consume up to *count* rows as block views; returns how many."""
        out: list[AccessBlock] = []
        got = 0
        while got < count and self.refill():
            step = min(count - got, self.buffered())
            out.append(self.block.slice(self.pos, self.pos + step))
            self.pos += step
            got += step
        return out, got


class ShapeSegments:
    """Pull-based cursor over a trace of blocks, emitting spans of
    same-shape segments.

    The consumption unit of a concurrent :class:`ClientSession`:
    :meth:`next_span` returns up to *max_ops* consecutive accesses of
    one block, cut into segments that share one shape (size,
    read/write, scan flag, think time) — the argument shape of the
    pool's ``access_quantum`` — or ``None`` once the trace is
    exhausted.

    One vectorised :meth:`AccessBlock.segment_bounds` scan per block,
    shape columns materialised to plain lists once, the id column
    handed out whole. The trace must hold :class:`AccessBlock` chunks
    only; scalar accesses are packed with :func:`accesses_to_blocks`
    first.
    """

    __slots__ = ("_iterator", "_ids", "_sizes", "_writes", "_scans",
                 "_thinks", "_bounds", "_seg", "_pos")

    def __init__(self, trace) -> None:
        self._iterator = iter(trace)
        self._ids: np.ndarray | None = None
        self._sizes: list[int] | None = None
        self._writes: list[bool] | None = None
        self._scans: list[bool] | None = None
        self._thinks: list[float] | None = None
        self._bounds: list[int] | None = None
        self._seg = 0
        self._pos = 0

    def _advance(self) -> bool:
        """Load the next non-empty block; False once exhausted."""
        for block in self._iterator:
            if type(block) is not AccessBlock:
                raise TypeError(
                    "ShapeSegments consumes AccessBlock chunks; pack"
                    " scalar accesses with accesses_to_blocks first")
            if len(block):
                # The id column stays an ndarray, handed out whole with
                # every span. Shape columns are indexed once per
                # segment, so plain lists are cheapest.
                self._ids = block.page_id
                self._sizes = block.nbytes.tolist()
                self._writes = block.write.tolist()
                self._scans = block.is_scan.tolist()
                self._thinks = block.think_ns.tolist()
                self._bounds = block.segment_bounds()
                self._seg = 1
                self._pos = 0
                return True
        return False

    def next_span(self, max_ops: int):
        """Up to *max_ops* accesses of the current block, crossing
        shape-segment boundaries, as ``(ids, segs, count)``.

        ``ids`` is the block's whole id column (never sliced — the
        pool's quantum lane indexes it by segment bounds), ``segs`` a
        list of ``(start, stop, nbytes, write, is_scan, think_ns)``
        entries in trace order, and ``count`` the ops covered. Returns
        ``None`` when the trace is exhausted; block boundaries cap the
        span, so a caller with budget left simply calls again; the
        spans of any budget sequence walk the trace's access sequence
        in order.
        """
        if max_ops <= 0:
            return None
        if self._ids is None and not self._advance():
            return None
        ids = self._ids
        bounds = self._bounds
        nseg = len(bounds)
        seg = self._seg
        pos = self._pos
        budget = max_ops
        segs = []
        while budget > 0:
            seg_end = bounds[seg]
            take = seg_end - pos
            if take > budget:
                take = budget
            stop = pos + take
            segs.append((pos, stop, self._sizes[pos],
                         self._writes[pos], self._scans[pos],
                         self._thinks[pos]))
            budget -= take
            pos = stop
            if stop == seg_end:
                seg += 1
                if seg >= nseg:
                    self._ids = None
                    break
        self._seg = seg
        self._pos = pos
        return ids, segs, max_ops - budget

class _BlockBuilder:
    """Accumulates block views and re-emits ~``block_ops``-row blocks."""

    __slots__ = ("_block_ops", "_chunks", "_count")

    def __init__(self, block_ops: int) -> None:
        self._block_ops = block_ops
        self._chunks: list[AccessBlock] = []
        self._count = 0

    def add(self, chunk: AccessBlock) -> None:
        if len(chunk):
            self._chunks.append(chunk)
            self._count += len(chunk)

    def full(self) -> bool:
        return self._count >= self._block_ops

    def _concatenated(self) -> AccessBlock:
        chunks = self._chunks
        if len(chunks) == 1:
            return chunks[0]
        return AccessBlock(
            page_id=np.concatenate([c.page_id for c in chunks]),
            write=np.concatenate([c.write for c in chunks]),
            is_scan=np.concatenate([c.is_scan for c in chunks]),
            nbytes=np.concatenate([c.nbytes for c in chunks]),
            think_ns=np.concatenate([c.think_ns for c in chunks]),
        )

    def drain(self, final: bool = False) -> Iterator[AccessBlock]:
        """Emit full blocks (and the remainder too when *final*)."""
        if self._count == 0 or (not final and not self.full()):
            return
        block = self._concatenated()
        total = len(block)
        emit_to = total if final else (total // self._block_ops
                                       ) * self._block_ops
        for start in range(0, emit_to, self._block_ops):
            yield block.slice(start, min(start + self._block_ops, total))
        self._chunks = [block.slice(emit_to, total)] if emit_to < total \
            else []
        self._count = total - emit_to


# -- trace combinators -------------------------------------------------------


def interleave(*traces, weights: list[int] | None = None):
    """Round-robin interleave several traces until all are exhausted.

    With *weights*, trace *i* contributes ``weights[i]`` accesses per
    round (a cheap way to mix OLTP and OLAP load at a chosen ratio).
    Scalar traces yield scalar accesses; if any input carries
    :class:`AccessBlock` chunks the result is re-emitted as blocks,
    elementwise identical to the scalar interleave of the expanded
    inputs.
    """
    iterators = [iter(trace) for trace in traces]
    if weights is None:
        weights = [1] * len(iterators)
    if len(weights) != len(iterators):
        raise ValueError("one weight per trace required")
    firsts = [next(iterator, None) for iterator in iterators]
    if any(type(first) is AccessBlock for first in firsts):
        return _interleave_blocks(iterators, firsts, weights)
    return _interleave_scalar(iterators, firsts, weights)


def _interleave_scalar(iterators, firsts, weights) -> Iterator[Access]:
    live = set(range(len(iterators)))
    first_pending = dict(enumerate(firsts))
    while live:
        for index in list(live):
            for _ in range(weights[index]):
                first = first_pending.pop(index, None)
                if first is not None:
                    yield first
                    continue
                try:
                    yield next(iterators[index])
                except StopIteration:
                    live.discard(index)
                    break


def _interleave_blocks(iterators, firsts, weights,
                       block_ops: int = BLOCK_OPS
                       ) -> Iterator[AccessBlock]:
    cursors = [_BlockCursor(iterator, first=first)
               for iterator, first in zip(iterators, firsts)]
    for index, first in enumerate(firsts):
        if first is None:
            cursors[index].done = True
    live = [index for index in range(len(cursors))]
    builder = _BlockBuilder(block_ops)
    while live:
        # Bulk path: every live trace has whole rounds buffered, so K
        # rounds are assembled with one fancy-indexed scatter per
        # trace instead of per-access Python stepping.
        rounds = min(
            (cursors[i].buffered() // weights[i]
             for i in live if weights[i] > 0),
            default=0,
        )
        if rounds >= 1 and all(weights[i] > 0 for i in live):
            row = np.cumsum([0] + [weights[i] for i in live])
            width = int(row[-1])
            total = rounds * width
            out_pid = np.empty(total, np.int64)
            out_w = np.empty(total, np.bool_)
            out_s = np.empty(total, np.bool_)
            out_nb = np.empty(total, np.int64)
            out_t = np.empty(total, np.float64)
            strides = np.arange(rounds)[:, None] * width
            for slot, index in enumerate(live):
                cursor = cursors[index]
                w = weights[index]
                src = cursor.block.slice(cursor.pos,
                                         cursor.pos + rounds * w)
                dest = (strides
                        + np.arange(row[slot], row[slot] + w)).ravel()
                out_pid[dest] = src.page_id
                out_w[dest] = src.write
                out_s[dest] = src.is_scan
                out_nb[dest] = src.nbytes
                out_t[dest] = src.think_ns
                cursor.pos += rounds * w
            builder.add(AccessBlock(out_pid, out_w, out_s, out_nb,
                                    out_t))
            yield from builder.drain()
            continue
        # Boundary path: at least one trace is mid-refill or near
        # exhaustion — step one round with scalar-identical semantics
        # (a trace that comes up short is dropped after contributing
        # its partial round, exactly like the scalar generator).
        for index in list(live):
            chunks, got = cursors[index].take(weights[index])
            for chunk in chunks:
                builder.add(chunk)
            if got < weights[index]:
                live.remove(index)
        yield from builder.drain()
    yield from builder.drain(final=True)


def take(trace, n: int):
    """The first *n* accesses of a trace (block-aware: block traces
    are truncated at access granularity and stay blocks)."""
    iterator = iter(trace)
    first = next(iterator, None)
    if first is None:
        return iter(())
    if type(first) is AccessBlock:
        return _take_blocks(_BlockCursor(iterator, first=first), n)

    def scalar() -> Iterator[Access]:
        remaining = n
        item = first
        while remaining > 0:
            yield item
            remaining -= 1
            if remaining == 0:
                return
            try:
                item = next(iterator)
            except StopIteration:
                return
    return scalar()


def _take_blocks(cursor: _BlockCursor, n: int) -> Iterator[AccessBlock]:
    remaining = n
    while remaining > 0 and cursor.refill():
        step = min(remaining, cursor.buffered())
        yield cursor.block.slice(cursor.pos, cursor.pos + step)
        cursor.pos += step
        remaining -= step


def merge_timed(*timed_traces: Iterable[tuple[float, Access]]
                ) -> Iterator[tuple[float, Access]]:
    """Merge (timestamp, access) streams by timestamp."""
    return heapq.merge(*timed_traces, key=lambda pair: pair[0])


def instrumented(trace, ctx, name: str = "trace", batch: int = 1024):
    """Pass a trace through while counting it into *ctx* metrics.

    Counters land under ``workload.<name>.*`` (accesses, writes,
    scans, bytes). Counting is batched so instrumenting a generator
    costs a few local increments per access — and one vectorised
    reduction per chunk for :class:`AccessBlock` items, which pass
    through unchanged.
    """
    metrics = ctx.metrics.scope(f"workload.{name}")
    accesses = writes = scans = nbytes = 0
    for item in trace:
        if type(item) is AccessBlock:
            n = len(item)
            if n:
                metrics.incr("accesses", n)
                metrics.incr("writes", int(np.count_nonzero(item.write)))
                metrics.incr("scans", int(np.count_nonzero(item.is_scan)))
                metrics.incr("bytes", int(item.nbytes.sum()))
            yield item
            continue
        accesses += 1
        nbytes += item.nbytes
        if item.write:
            writes += 1
        if item.is_scan:
            scans += 1
        if accesses % batch == 0:
            metrics.incr("accesses", batch)
            metrics.incr("writes", writes)
            metrics.incr("scans", scans)
            metrics.incr("bytes", nbytes)
            writes = scans = nbytes = 0
        yield item
    remainder = accesses % batch
    if remainder or writes or scans or nbytes:
        metrics.incr("accesses", remainder)
        metrics.incr("writes", writes)
        metrics.incr("scans", scans)
        metrics.incr("bytes", nbytes)
