"""Trace persistence and analysis.

Real tiering studies run on captured traces. This module round-trips
:class:`~repro.workloads.traces.AccessBlock` traces through a compact
numpy container (`.npz`, one array per column) and computes the
summary statistics that decide whether tiering will work on a trace:
footprint, read ratio, scan share, and the hot-set concentration
curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from ..errors import ConfigError
from .traces import BLOCK_OPS, AccessBlock, require_block

#: The container's columns, in block order, with their stored dtypes.
_COLUMNS = (("page_id", np.int64), ("write", bool), ("is_scan", bool),
            ("nbytes", np.int32), ("think_ns", np.float64))


def _columns(trace: Iterable[AccessBlock]) -> dict[str, np.ndarray]:
    """A trace's five columns, concatenated across its blocks."""
    blocks = [require_block(block) for block in trace]
    return {name: np.concatenate([getattr(block, name) for block in blocks]
                                 or [np.empty(0, dtype)])
            for name, dtype in _COLUMNS}


def save_trace(path: str | Path, trace: Iterable[AccessBlock]) -> int:
    """Serialize a trace to *path* (.npz). Returns accesses written."""
    columns = _columns(trace)
    if not len(columns["page_id"]):
        raise ConfigError("refusing to save an empty trace")
    np.savez_compressed(Path(path), **{
        name: np.asarray(columns[name], dtype=dtype)
        for name, dtype in _COLUMNS})
    return len(columns["page_id"])


def load_trace(path: str | Path) -> Iterator[AccessBlock]:
    """Stream a trace back from *path* as ``BLOCK_OPS``-row blocks."""
    with np.load(Path(path)) as data:
        block = AccessBlock.from_columns(
            *(data[name] for name, _dtype in _COLUMNS))
    for start in range(0, len(block), BLOCK_OPS):
        yield block.slice(start, start + BLOCK_OPS)


@dataclass(frozen=True)
class TraceProfile:
    """Summary statistics of one trace."""

    accesses: int
    footprint_pages: int
    read_ratio: float
    scan_share: float
    bytes_touched: int
    #: Fraction of accesses absorbed by the hottest 1% / 10% of pages.
    hot_1pct_share: float
    hot_10pct_share: float

    @property
    def tierable(self) -> bool:
        """A rough go/no-go for tiering: enough skew that a small
        fast tier can absorb most traffic."""
        return self.hot_10pct_share > 0.4


def profile_trace(trace: Iterable[AccessBlock]) -> TraceProfile:
    """Profile a trace from its concatenated columns."""
    columns = _columns(trace)
    accesses = len(columns["page_id"])
    if accesses == 0:
        raise ConfigError("cannot profile an empty trace")
    _ids, counts = np.unique(columns["page_id"], return_counts=True)
    reads = accesses - int(np.count_nonzero(columns["write"]))
    scans = int(np.count_nonzero(columns["is_scan"]))
    bytes_touched = int(columns["nbytes"].sum())
    by_heat = sorted(counts.tolist(), reverse=True)
    footprint = len(by_heat)

    def hot_share(fraction: float) -> float:
        k = max(1, int(footprint * fraction))
        return sum(by_heat[:k]) / accesses

    return TraceProfile(
        accesses=accesses,
        footprint_pages=footprint,
        read_ratio=reads / accesses,
        scan_share=scans / accesses,
        bytes_touched=bytes_touched,
        hot_1pct_share=hot_share(0.01),
        hot_10pct_share=hot_share(0.10),
    )
