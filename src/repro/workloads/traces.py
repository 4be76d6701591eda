"""Access traces: the lingua franca between workloads and engines.

A trace is an iterable of :class:`AccessBlock` chunks: five parallel
numpy columns, one row per access. Every generator in
:mod:`repro.workloads` emits ~:data:`BLOCK_OPS`-row blocks, every
combinator here takes and yields blocks, and every consumer (the
engine's ``run``, a session's :class:`ShapeSegments`) charges them
without materialising a Python object per access, so multi-million
access experiments stay memory-flat. A hand-built trace is a list of
:meth:`AccessBlock.from_columns` blocks; anything else in a trace is
refused by :func:`require_block`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..errors import ConfigError, require_count

#: Accesses per emitted block.
BLOCK_OPS = 4096


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
        """Build a block, normalising column dtypes.

        Refuses (:class:`ConfigError`) columns that are not 1-D or not
        all of one length: a consumer would otherwise broadcast a
        short column or fail deep inside a charge.
        """
        block = cls(
            page_id=np.ascontiguousarray(page_id, dtype=np.int64),
            write=np.ascontiguousarray(write, dtype=np.bool_),
            is_scan=np.ascontiguousarray(is_scan, dtype=np.bool_),
            nbytes=np.ascontiguousarray(nbytes, dtype=np.int64),
            think_ns=np.ascontiguousarray(think_ns, dtype=np.float64),
        )
        shapes = [column.shape for column in (
            block.page_id, block.write, block.is_scan, block.nbytes,
            block.think_ns)]
        if any(len(shape) != 1 for shape in shapes) \
                or len(set(shapes)) != 1:
            raise ConfigError(
                "AccessBlock.from_columns needs five 1-D columns of one"
                f" length, got shapes {shapes}")
        return block

    @classmethod
    def concat(cls, blocks: "list[AccessBlock]") -> "AccessBlock":
        """*blocks* as one block, rows in order (the one block itself,
        uncopied, when there is one)."""
        if len(blocks) == 1:
            return blocks[0]
        return cls(
            page_id=np.concatenate([b.page_id for b in blocks]),
            write=np.concatenate([b.write for b in blocks]),
            is_scan=np.concatenate([b.is_scan for b in blocks]),
            nbytes=np.concatenate([b.nbytes for b in blocks]),
            think_ns=np.concatenate([b.think_ns for b in blocks]),
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

    def segment_bounds(self) -> list[int]:
        """Boundaries of the maximal same-shape runs in this block.

        Returns ``[0, b1, ..., n]`` such that every half-open segment
        holds one access shape (nbytes, write, scan flag, think time)
        — the unit the engine hands to the pool's batched lane. One
        vectorised boundary scan over a packed shape key. ``think_ns``
        is compared by bit pattern, which can only split runs a float
        comparison would have merged (``-0.0`` vs ``0.0``) — splitting
        is always exact.
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


def require_block(item) -> AccessBlock:
    """*item*, if it is an :class:`AccessBlock`; the one check every
    trace consumer and combinator makes of what it is handed."""
    if type(item) is not AccessBlock:
        raise ConfigError(
            "a trace holds AccessBlock chunks only, got"
            f" {type(item).__name__}; build one with"
            " AccessBlock.from_columns")
    return item


def require_trace(trace):
    """*trace*, unless it is a bare :class:`AccessBlock` — a trace is
    an iterable of blocks, so one block must come wrapped in a list."""
    if type(trace) is AccessBlock:
        raise ConfigError(
            "a trace is an iterable of AccessBlocks, got a bare"
            " AccessBlock; wrap it in a list: [block]")
    return trace


class _BlockCursor:
    """Pull-based cursor over one trace of blocks, handing out views."""

    __slots__ = ("_iterator", "block", "pos", "done")

    def __init__(self, trace) -> None:
        self._iterator = iter(trace)
        self.block: AccessBlock | None = None
        self.pos = 0
        self.done = False

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
            self.block = require_block(item)
            self.pos = 0
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
    one shape tuple per segment built once, the id column handed out
    whole.
    """

    __slots__ = ("_iterator", "_ids", "_shapes", "_bounds", "_seg", "_pos")

    def __init__(self, trace) -> None:
        self._iterator = iter(trace)
        self._ids: np.ndarray | None = None
        self._shapes: list[tuple] | None = None
        self._bounds: list[int] | None = None
        self._seg = 0
        self._pos = 0

    def _advance(self) -> bool:
        """Load the next non-empty block; False once exhausted."""
        for block in self._iterator:
            if len(require_block(block)):
                # The id column stays an ndarray, handed out whole with
                # every span; each segment's one shape is read at its
                # start, as an (nbytes, write, is_scan, think_ns) tuple.
                self._ids = block.page_id
                self._bounds = block.segment_bounds()
                starts = self._bounds[:-1]
                self._shapes = list(zip(
                    block.nbytes[starts].tolist(),
                    block.write[starts].tolist(),
                    block.is_scan[starts].tolist(),
                    block.think_ns[starts].tolist()))
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
        shapes = self._shapes
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
            segs.append((pos, stop, *shapes[seg - 1]))
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

    def drain(self, final: bool = False) -> Iterator[AccessBlock]:
        """Emit full blocks (and the remainder too when *final*)."""
        if self._count == 0 or (not final and not self.full()):
            return
        block = AccessBlock.concat(self._chunks)
        total = len(block)
        emit_to = total if final else (total // self._block_ops
                                       ) * self._block_ops
        for start in range(0, emit_to, self._block_ops):
            yield block.slice(start, min(start + self._block_ops, total))
        self._chunks = [block.slice(emit_to, total)] if emit_to < total \
            else []
        self._count = total - emit_to


# -- trace combinators -------------------------------------------------------


def interleave(*traces, weights: list[int] | None = None
               ) -> Iterator[AccessBlock]:
    """Round-robin interleave several traces until all are exhausted.

    With *weights*, trace *i* contributes ``weights[i]`` accesses per
    round (a cheap way to mix OLTP and OLAP load at a chosen ratio); a
    trace that comes up short is dropped after its partial round. The
    result is re-chunked into ~``BLOCK_OPS``-row blocks.
    """
    if weights is None:
        weights = [1] * len(traces)
    if len(weights) != len(traces):
        raise ValueError("one weight per trace required")
    for weight in weights:
        require_count("interleave weight", weight, 1)
    return _interleave([_BlockCursor(trace) for trace in traces],
                       weights)


def _interleave(cursors, weights) -> Iterator[AccessBlock]:
    live = list(range(len(cursors)))
    builder = _BlockBuilder(BLOCK_OPS)
    while live:
        # Bulk path: every live trace has whole rounds buffered, so K
        # rounds are assembled with one fancy-indexed scatter per
        # trace instead of per-access Python stepping.
        rounds = min(cursors[i].buffered() // weights[i] for i in live)
        if rounds >= 1:
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
        # exhaustion — step one round a trace at a time.
        for index in list(live):
            chunks, got = cursors[index].take(weights[index])
            for chunk in chunks:
                builder.add(chunk)
            if got < weights[index]:
                live.remove(index)
        yield from builder.drain()
    yield from builder.drain(final=True)


def instrumented(trace, ctx, name: str = "trace"
                 ) -> Iterator[AccessBlock]:
    """Pass a trace through while counting it into *ctx* metrics.

    Counters land under ``workload.<name>.*`` (accesses, writes,
    scans, bytes): one vectorised reduction per block, and the blocks
    pass through unchanged.
    """
    metrics = ctx.metrics.scope(f"workload.{name}")
    for block in trace:
        n = len(require_block(block))
        if n:
            metrics.incr("accesses", n)
            metrics.incr("writes", int(np.count_nonzero(block.write)))
            metrics.incr("scans", int(np.count_nonzero(block.is_scan)))
            metrics.incr("bytes", int(block.nbytes.sum()))
        yield block
