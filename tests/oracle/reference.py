"""The frozen reference semantics of the buffer pool and the engine.

The simulator charges hits through precomputed per-path timing tables
and resolves whole runs and blocks in array ops. This module is what
those lanes are held to: the pool one access at a time, each hit's
latency derived from the device and link specs on every call, and the
engine adding think time access by access. :func:`reference` turns a
built pool or engine into its twin in place; the equivalence suites
and the pinned digests compare the real lanes against it, float for
float.

Nothing in ``src/`` imports it.
"""

from __future__ import annotations

from repro.core.buffer import (
    TieredBufferPool,
    _check_id_array,
    _check_nbytes,
    _check_page_id,
)
from repro.core.engine import ScaleUpEngine
from repro.core.frame import TIER
from repro.errors import BufferPoolError
from repro.sim.interconnect import PREFETCH_DEPTH, AccessPath
from repro.units import CACHE_LINE, transfer_time_ns
from tests.oracle.traces import blocks_to_accesses


def path_time(path: AccessPath, nbytes: int, write: bool,
              is_scan: bool) -> float:
    """Unloaded time to move *nbytes* over *path* (ns), from the specs
    on every call: hop and device latency — divided by the prefetch
    depth for a streaming access — plus the transfer at the narrowest
    bandwidth along the path. Bumps the device's load or store stats
    as :meth:`AccessPath.read_time` and its siblings do."""
    stats = path.device.stats
    if write:
        stats.stores += 1
        stats.store_bytes += nbytes
        latency = path.write_latency_ns()
        bandwidth = path.write_bandwidth
    else:
        stats.loads += 1
        stats.load_bytes += nbytes
        latency = path.read_latency_ns()
        bandwidth = path.read_bandwidth
    if is_scan:
        latency = latency / PREFETCH_DEPTH
    return latency + transfer_time_ns(nbytes, bandwidth)


class ReferencePool(TieredBufferPool):
    """The pool with every entry point on the scalar reference access:
    runs, quanta and blocks are the think → :meth:`access` loop."""

    def access(self, page_id, nbytes: int = CACHE_LINE,
               write: bool = False, is_scan: bool = False) -> float:
        _check_page_id(page_id)
        _check_nbytes(nbytes)
        if self._lazy_runs:
            self._drain_lazy()
        self.stats.accesses += 1
        if self.tracker is not None:
            self.tracker.record(page_id, is_scan=is_scan)
        clock = self._session_clock
        if clock is None:
            clock = self.clock
        tier_index = self._get(page_id, TIER)
        if tier_index < 0:
            latency = self._fault(page_id, is_scan=is_scan)
            tier_index = self._get(page_id, TIER)
            self.stats.misses += 1
            self.stats.fault_time_ns += latency
            if self._session_queues is not None:
                latency = self._contend(tier_index, clock._now,
                                        latency, self.page_size, True)
            trace = self._trace
            if trace.enabled:
                now = clock.now
                trace.emit_span("pool.fault", "pool", now, now + latency,
                                {"page": page_id})
        else:
            latency = path_time(self.tiers[tier_index].path, nbytes,
                                write, is_scan)
            if self._session_queues is not None:
                latency = self._contend(tier_index, clock._now,
                                        latency, nbytes, write)
            self._register_hit(page_id, tier_index)
        self._touch(page_id, clock.now, write)
        clock.advance(latency)
        self.stats.demand_time_ns += latency
        self.placement.on_access(page_id, tier_index, is_scan=is_scan)
        return latency

    def access_run(self, page_ids, nbytes: int = CACHE_LINE,
                   write: bool = False, is_scan: bool = False,
                   think_ns: float = 0.0, accum: float = 0.0) -> float:
        _check_id_array(page_ids)
        if page_ids.shape[0] == 0:
            return accum
        if not think_ns >= 0:
            raise BufferPoolError("think_ns must be >= 0")
        _check_nbytes(nbytes)
        return self.access_batch(page_ids.tolist(), nbytes=nbytes,
                                 write=write, is_scan=is_scan,
                                 think_ns=think_ns, accum=accum)

    def access_block(self, block, accum: float = 0.0) -> float:
        if len(block.page_id) == 0:
            return accum
        if not float(block.think_ns.min()) >= 0:
            raise BufferPoolError("think_ns must be >= 0")
        sizes = block.nbytes
        _check_nbytes(sizes.min().item())
        if sizes.dtype.kind == "f":
            _check_nbytes(sizes.max().item())
        clock = self._session_clock
        if clock is None:
            clock = self.clock
        for page_id, nbytes, write, is_scan, think in zip(
                block.page_id.tolist(), sizes.tolist(),
                block.write.tolist(), block.is_scan.tolist(),
                block.think_ns.tolist()):
            if think:
                clock.advance(think)
            accum += self.access(page_id, nbytes, write, is_scan)
        return accum

    def access_quantum(self, ids, segs, accum: float = 0.0):
        _check_id_array(ids)
        for seg in segs:
            if not seg[5] >= 0:
                raise BufferPoolError("think_ns must be >= 0")
            _check_nbytes(seg[2])
        seg_demands = []
        for a, b, nbytes, write, is_scan, think in segs:
            accum = self.access_run(ids[a:b], nbytes, write, is_scan,
                                    think, accum)
            seg_demands.append(accum)
        return accum, seg_demands


class ReferenceEngine(ScaleUpEngine):
    """The engine whose run charges access by access, blocks expanded
    to scalar records, think time added one access at a time."""

    def run(self, trace, label: str | None = None):
        pool = self.pool
        clock = pool.clock
        start = self._run_start()
        demand_ns = 0.0
        think_ns = 0.0
        ops = 0
        with self.ctx.span(f"run:{label or self.name}", cat="engine"):
            for access in blocks_to_accesses(trace):
                if access.think_ns:
                    clock.advance(access.think_ns)
                    think_ns += access.think_ns
                demand_ns += pool.access(access.page_id, access.nbytes,
                                         access.write, access.is_scan)
                ops += 1
        return self._run_report(start, label, ops, demand_ns, think_ns)


def reference(obj):
    """Turn a built pool, or an engine and its pool, into the reference
    twin in place (the twins add no state); returns *obj*."""
    if isinstance(obj, ScaleUpEngine):
        obj.__class__ = ReferenceEngine
        reference(obj.pool)
    elif isinstance(obj, TieredBufferPool):
        obj.__class__ = ReferencePool
    else:
        raise TypeError(f"no reference twin for {type(obj).__name__}")
    return obj
