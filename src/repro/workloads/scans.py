"""Analytical scan traces and mixed HTAP workloads.

Sequential scans are the canonical OLAP access pattern and the
canonical enemy of an LRU buffer pool. The HTAP mix interleaves a
Zipfian OLTP stream with repeated table scans to reproduce the
interference scenario Sec 3.1 argues CXL placement can eliminate.
Both generators emit :class:`AccessBlock` chunks.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..errors import ConfigError
from ..units import PAGE_SIZE
from .traces import BLOCK_OPS, AccessBlock, interleave
from .ycsb import YCSBConfig, ycsb_blocks


def scan_blocks(first_page: int, num_pages: int, repeats: int = 1,
                write: bool = False, think_ns: float = 50.0,
                block_ops: int = BLOCK_OPS) -> Iterator[AccessBlock]:
    """Sweep ``[first_page, first_page + num_pages)`` *repeats* times,
    touching full pages, flagged as scan accesses.

    One sweep's columns are built once with ``arange``/``full`` and
    re-emitted as views every round — a scan is the best case for the
    columnar pipeline (single shape, maximal runs).
    """
    if num_pages <= 0 or repeats <= 0:
        raise ConfigError("num_pages and repeats must be positive")
    sweep = AccessBlock(
        page_id=np.arange(first_page, first_page + num_pages,
                          dtype=np.int64),
        write=np.full(num_pages, write, np.bool_),
        is_scan=np.ones(num_pages, np.bool_),
        nbytes=np.full(num_pages, PAGE_SIZE, np.int64),
        think_ns=np.full(num_pages, think_ns, np.float64),
    )
    for _round in range(repeats):
        for start in range(0, num_pages, block_ops):
            yield sweep.slice(start, min(start + block_ops, num_pages))


def mixed_htap_blocks(
    oltp_pages: int = 20_000,
    olap_pages: int = 50_000,
    oltp_ops: int = 50_000,
    olap_repeats: int = 2,
    oltp_per_olap: int = 4,
    theta: float = 0.99,
    seed: int = 42,
    block_ops: int = BLOCK_OPS,
) -> Iterator[AccessBlock]:
    """An HTAP mix: Zipfian point traffic on pages ``[0, oltp_pages)``
    interleaved with scans over ``[oltp_pages, oltp_pages+olap_pages)``.

    ``oltp_per_olap`` controls the interleave ratio (OLTP accesses per
    scan access), i.e. how aggressive the analytical side is; the
    :func:`~repro.workloads.traces.interleave` of the two block
    streams re-chunks the mix.
    """
    oltp = ycsb_blocks(YCSBConfig(
        mix="A", num_pages=oltp_pages, num_ops=oltp_ops,
        theta=theta, seed=seed,
    ), block_ops=block_ops)
    olap = scan_blocks(
        first_page=oltp_pages, num_pages=olap_pages,
        repeats=olap_repeats, block_ops=block_ops,
    )
    return interleave(oltp, olap, weights=[oltp_per_olap, 1])
