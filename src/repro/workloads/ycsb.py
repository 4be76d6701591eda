"""YCSB-like OLTP traces.

The standard cloud-serving mixes (A-F) over a page population with
Zipfian skew. Keys map to pages at a configurable fill factor, so the
trace exercises a buffer pool exactly like point transactions do.

Two emitters share one pre-drawn op plan: :func:`ycsb_trace` yields
scalar :class:`Access` records, :func:`ycsb_blocks` assembles the same
elementwise sequence as structure-of-arrays :class:`AccessBlock`
chunks with vectorised scan expansion and insert-cursor arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator

import numpy as np

from ..errors import ConfigError, require_count
from ..units import CACHE_LINE
from .mtrand import py_random_sample
from .traces import BLOCK_OPS, Access, AccessBlock
from .zipf import ZipfGenerator

#: Standard mixes: (read fraction, update fraction, insert fraction,
#: read-modify-write fraction, scan fraction).
YCSB_MIXES: dict[str, dict[str, float]] = {
    "A": {"read": 0.50, "update": 0.50},
    "B": {"read": 0.95, "update": 0.05},
    "C": {"read": 1.00},
    "D": {"read": 0.95, "insert": 0.05},
    "E": {"scan": 0.95, "insert": 0.05},
    "F": {"read": 0.50, "rmw": 0.50},
}

#: Page size touched by scan ops (full page, vs a line for point ops).
_SCAN_NBYTES = 4096

#: Op codes for the vectorised block assembly.
_OP_READ, _OP_UPDATE, _OP_RMW, _OP_INSERT, _OP_SCAN = range(5)
_OP_CODES = {
    "read": _OP_READ,
    "update": _OP_UPDATE,
    "rmw": _OP_RMW,
    "insert": _OP_INSERT,
    "scan": _OP_SCAN,
}


@dataclass(frozen=True)
class YCSBConfig:
    """Parameters of a YCSB trace."""

    mix: str = "B"
    num_pages: int = 100_000
    num_ops: int = 100_000
    theta: float = 0.99
    records_per_page: int = 16
    scan_length_pages: int = 16
    think_ns: float = 200.0
    seed: int = 42

    def __post_init__(self) -> None:
        if self.mix not in YCSB_MIXES:
            raise ConfigError(
                f"unknown YCSB mix {self.mix!r}; choose from"
                f" {sorted(YCSB_MIXES)}"
            )
        for name, least in (("num_pages", 1), ("num_ops", 0),
                            ("records_per_page", 1),
                            ("scan_length_pages",
                             1 if "scan" in YCSB_MIXES[self.mix] else 0)):
            require_count(name, getattr(self, name), least)
        if not self.think_ns >= 0:  # also refuses NaN
            raise ConfigError(
                f"think_ns must be non-negative, got {self.think_ns!r}")


def _op_plan(config: YCSBConfig) -> tuple[np.ndarray, np.ndarray]:
    """Pre-draw the op codes (int8) and the inserts' page-growth flags.

    Replicates ``random.choices``'s arithmetic on the pinned
    ``random.Random(seed ^ 0x9e3779b9)`` uniform stream — one draw per
    op mapped by ``bisect(cum_weights, u * total, 0, hi)``, and the
    growth draw taken immediately after each insert choice — as array
    code, so the trace stays elementwise identical to the historical
    per-op loop.
    """
    mix = YCSB_MIXES[config.mix]
    codes = np.array([_OP_CODES[name] for name in mix], np.int8)
    cum_weights = np.array(list(accumulate(mix.values())))
    total = cum_weights[-1] + 0.0
    num_ops = config.num_ops
    inserting = "insert" in mix
    # Twice num_ops uniforms cover num_ops ops even if every one inserts.
    uniform = py_random_sample(config.seed ^ 0x9e3779b9,
                               num_ops * (1 + inserting))
    drawn = codes[np.searchsorted(cum_weights[:-1], uniform * total, "right")]
    if not inserting:
        return drawn, np.empty(0, np.bool_)
    # A uniform is a growth draw iff it directly follows an insert
    # *choice*, so which is which only chains through runs of adjacent
    # insert-valued uniforms: walk those (~5 % of the stream) in order.
    is_choice = np.ones(len(uniform) + 1, np.bool_)
    growth = -1
    for at in np.flatnonzero(drawn == _OP_INSERT).tolist():
        if at != growth:
            growth = at + 1
            is_choice[growth] = False
    chosen = np.flatnonzero(is_choice)[:num_ops]
    ops = drawn[chosen]
    grow = 1.0 / config.records_per_page
    return ops, uniform[chosen[ops == _OP_INSERT] + 1] < grow


def ycsb_trace(config: YCSBConfig) -> Iterator[Access]:
    """Generate the access trace for one YCSB run.

    Read/update/rmw touch one cache line of one page; inserts append
    at the tail pages; scans sweep consecutive pages with full-page
    touches flagged ``is_scan``.
    """
    zipf = ZipfGenerator(config.num_pages, theta=config.theta,
                         scramble=True, seed=config.seed)
    page_ids = zipf.sample(config.num_ops)
    codes, advances = _op_plan(config)
    ops = codes.tolist()
    insert_cursor = config.num_pages
    inserts_seen = 0

    for i in range(config.num_ops):
        op = ops[i]
        page_id = int(page_ids[i])
        if op == _OP_READ:
            yield Access(page_id, think_ns=config.think_ns)
        elif op == _OP_UPDATE:
            yield Access(page_id, write=True, think_ns=config.think_ns)
        elif op == _OP_RMW:
            yield Access(page_id, think_ns=config.think_ns)
            yield Access(page_id, write=True, think_ns=0.0)
        elif op == _OP_INSERT:
            yield Access(insert_cursor, write=True,
                         think_ns=config.think_ns)
            if advances[inserts_seen]:
                insert_cursor += 1
            inserts_seen += 1
        elif op == _OP_SCAN:
            start = page_id
            for offset in range(config.scan_length_pages):
                yield Access(start + offset, is_scan=True,
                             nbytes=_SCAN_NBYTES,
                             think_ns=config.think_ns / 4)
        else:  # pragma: no cover - mixes are validated above
            raise ConfigError(f"unhandled op {op}")


def ycsb_blocks(config: YCSBConfig,
                block_ops: int = BLOCK_OPS) -> Iterator[AccessBlock]:
    """The :func:`ycsb_trace` sequence as structure-of-arrays blocks.

    Elementwise identical to the scalar generator (same RNG draws,
    same op plan); op expansion (rmw pairs, scan sweeps) and insert
    cursor positions are assembled with numpy scatters instead of
    per-access object construction.
    """
    require_count("block_ops", block_ops, 1)
    num_ops = config.num_ops
    if num_ops == 0:
        return
    # The plan first: its temporaries are gone before the ids exist.
    codes, advances = _op_plan(config)
    zipf = ZipfGenerator(config.num_pages, theta=config.theta,
                         scramble=True, seed=config.seed)
    page_ids = zipf.sample(num_ops)
    scan_len = config.scan_length_pages
    lengths = np.array([1, 1, 2, 1, scan_len], dtype=np.int64)
    # Insert cursor value for the j-th insert: the tail page plus the
    # number of growth advances among earlier inserts.
    cursors = config.num_pages + np.cumsum(advances) - advances
    think = config.think_ns
    scan_think = config.think_ns / 4
    scan_steps = np.arange(scan_len, dtype=np.int64)
    inserts_seen = 0
    for chunk_start in range(0, num_ops, block_ops):
        chunk_end = min(chunk_start + block_ops, num_ops)
        chunk_codes = codes[chunk_start:chunk_end]
        chunk_pages = page_ids[chunk_start:chunk_end]
        counts = lengths[chunk_codes]
        offsets = np.cumsum(counts) - counts
        total = int(offsets[-1] + counts[-1])
        out_pid = np.zeros(total, np.int64)
        out_write = np.zeros(total, np.bool_)
        out_scan = np.zeros(total, np.bool_)
        out_nbytes = np.full(total, CACHE_LINE, np.int64)
        out_think = np.full(total, think, np.float64)
        mask = chunk_codes == _OP_READ
        out_pid[offsets[mask]] = chunk_pages[mask]
        mask = chunk_codes == _OP_UPDATE
        dest = offsets[mask]
        out_pid[dest] = chunk_pages[mask]
        out_write[dest] = True
        mask = chunk_codes == _OP_RMW
        dest = offsets[mask]
        out_pid[dest] = chunk_pages[mask]
        out_pid[dest + 1] = chunk_pages[mask]
        out_write[dest + 1] = True
        out_think[dest + 1] = 0.0
        mask = chunk_codes == _OP_INSERT
        dest = offsets[mask]
        if dest.size:
            out_pid[dest] = cursors[inserts_seen:inserts_seen + dest.size]
            out_write[dest] = True
            inserts_seen += dest.size
        mask = chunk_codes == _OP_SCAN
        dest = offsets[mask]
        if dest.size:
            sweep = (dest[:, None] + scan_steps).ravel()
            out_pid[sweep] = (chunk_pages[mask][:, None]
                              + scan_steps).ravel()
            out_scan[sweep] = True
            out_nbytes[sweep] = _SCAN_NBYTES
            out_think[sweep] = scan_think
        block = AccessBlock(out_pid, out_write, out_scan, out_nbytes,
                            out_think)
        for start in range(0, total, block_ops):
            yield block.slice(start, min(start + block_ops, total))


def working_set_pages(config: YCSBConfig, mass: float = 0.9) -> int:
    """Pages needed to absorb *mass* of the traffic (skew insight)."""
    zipf = ZipfGenerator(config.num_pages, theta=config.theta)
    lo, hi = 1, config.num_pages
    while lo < hi:
        mid = (lo + hi) // 2
        if zipf.hot_set_mass(mid / config.num_pages) >= mass:
            hi = mid
        else:
            lo = mid + 1
    return lo
