"""The frozen scalar trace generators: one ``Access`` record per access.

Every workload emits :class:`~repro.workloads.traces.AccessBlock`
chunks. This module is what those emitters are held to: the historical
generators, written one access at a time, plus the scalar round-robin
interleave and the two lossless adapters between the forms. The block
differentials (``tests/workloads/test_block_traces.py``) and the
``trace-gen`` pinned digest compare the emitters against it,
elementwise. It is never derived from the block emitters: that would
make every comparison tautological.

Nothing in ``src/`` imports it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.units import CACHE_LINE, PAGE_SIZE
from repro.workloads.traces import BLOCK_OPS, AccessBlock
from repro.workloads.ycsb import (_OP_INSERT, _OP_READ, _OP_RMW, _OP_SCAN,
                                  _OP_UPDATE, _SCAN_NBYTES, YCSBConfig,
                                  _op_plan)
from repro.workloads.zipf import ZipfGenerator


@dataclass(frozen=True, slots=True)
class Access:
    """One logical page access issued by a workload.

    ``think_ns`` is CPU work attributed to the access (modelling
    compute between memory touches — what makes a workload memory- or
    compute-bound). ``nbytes`` is how much of the page the access
    actually touches (a point lookup touches a line; a scan touches
    the full page).
    """

    page_id: int
    write: bool = False
    is_scan: bool = False
    nbytes: int = CACHE_LINE
    think_ns: float = 0.0


# -- lossless adapters -------------------------------------------------------


def from_accesses(accesses: Sequence[Access]) -> AccessBlock:
    """Pack scalar accesses into one block (lossless)."""
    n = len(accesses)
    return AccessBlock(
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


def block_accesses(block: AccessBlock) -> Iterator[Access]:
    """Unpack one block into scalar :class:`Access` records."""
    page_id = block.page_id.tolist()
    write = block.write.tolist()
    is_scan = block.is_scan.tolist()
    nbytes = block.nbytes.tolist()
    think_ns = block.think_ns.tolist()
    for i in range(len(page_id)):
        yield Access(page_id[i], write[i], is_scan[i], nbytes[i],
                     think_ns[i])


def blocks_to_accesses(trace) -> Iterator[Access]:
    """Expand a (possibly mixed) trace into scalar accesses."""
    for item in trace:
        if type(item) is AccessBlock:
            yield from block_accesses(item)
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
                yield from_accesses(buffer)
                buffer.clear()
            if len(item):
                yield item
            continue
        buffer.append(item)
        if len(buffer) >= block_ops:
            yield from_accesses(buffer)
            buffer.clear()
    if buffer:
        yield from_accesses(buffer)


# -- scalar generators -------------------------------------------------------


def interleave(*traces, weights: list[int] | None = None
               ) -> Iterator[Access]:
    """Round-robin interleave of scalar traces: trace *i* contributes
    ``weights[i]`` accesses per round until all are exhausted."""
    iterators = [iter(trace) for trace in traces]
    if weights is None:
        weights = [1] * len(iterators)
    live = set(range(len(iterators)))
    while live:
        for index in list(live):
            for _ in range(weights[index]):
                try:
                    yield next(iterators[index])
                except StopIteration:
                    live.discard(index)
                    break


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


def scan_trace(first_page: int, num_pages: int, repeats: int = 1,
               write: bool = False, think_ns: float = 50.0
               ) -> Iterator[Access]:
    """Sweep ``[first_page, first_page + num_pages)`` *repeats* times,
    touching full pages, flagged as scan accesses."""
    if num_pages <= 0 or repeats <= 0:
        raise ConfigError("num_pages and repeats must be positive")
    for _round in range(repeats):
        for offset in range(num_pages):
            yield Access(
                page_id=first_page + offset,
                write=write,
                is_scan=True,
                nbytes=PAGE_SIZE,
                think_ns=think_ns,
            )


def mixed_htap_trace(
    oltp_pages: int = 20_000,
    olap_pages: int = 50_000,
    oltp_ops: int = 50_000,
    olap_repeats: int = 2,
    oltp_per_olap: int = 4,
    theta: float = 0.99,
    seed: int = 42,
) -> Iterator[Access]:
    """An HTAP mix: Zipfian point traffic on pages ``[0, oltp_pages)``
    interleaved with scans over ``[oltp_pages, oltp_pages+olap_pages)``,
    ``oltp_per_olap`` OLTP accesses per scan access."""
    oltp = ycsb_trace(YCSBConfig(
        mix="A", num_pages=oltp_pages, num_ops=oltp_ops,
        theta=theta, seed=seed,
    ))
    olap = scan_trace(
        first_page=oltp_pages, num_pages=olap_pages, repeats=olap_repeats
    )
    return interleave(oltp, olap, weights=[oltp_per_olap, 1])


def flat_trace(tpcc, num_transactions: int,
               think_ns: float = 150.0) -> Iterator[Access]:
    """Flatten a ``TPCCLite``'s transactions into a page access
    trace."""
    for txn in tpcc.transactions(num_transactions):
        for op in txn.ops:
            yield Access(
                page_id=tpcc.page_of(op),
                write=op.write,
                nbytes=CACHE_LINE,
                think_ns=think_ns,
            )


def cloud_trace(workload) -> Iterator[Access]:
    """A ``CloudWorkload``'s access trace, one write coin flip per
    op."""
    zipf = ZipfGenerator(workload.working_set_pages, theta=workload.theta,
                         seed=workload.seed)
    rng = random.Random(workload.seed ^ 0xC10D)
    pages = zipf.sample(workload.num_ops)
    for i in range(workload.num_ops):
        yield Access(
            page_id=int(pages[i]),
            write=rng.random() >= workload.read_ratio,
            think_ns=workload.think_ns,
        )
