"""The hit kernel as it was before it paid per segment: a frozen twin.

:meth:`repro.core.buffer.TieredBufferPool._quantum_hits` sums its
counters per quantum, reserves the wait queues inline and logs each
span as ``(ids, qspan, segs)`` beside one timestamp column. This module
keeps the kernel it replaced — one ``WaitQueue.occupy_run`` per queue
per subsegment, counters bumped per subsegment, a tier-cut scan on
every quantum, one placement note per segment — with the settle that
read its log entries ``(ids, qspan, ts, writes, scans)``, verbatim.
:func:`parent_kernel` turns a built pool or engine into its twin in
place; the kernel suites compare wait-queue state (which the scalar
reference does not share: it reserves per access) and every settled
column against it, bit for bit.

Nothing in ``src/`` imports it.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from repro.core.buffer import _LOG_SETTLE, TieredBufferPool
from repro.core.engine import ScaleUpEngine


class ParentKernelPool(TieredBufferPool):
    """The pool with the parent hit kernel and settle."""

    def _drain_lazy(self) -> None:
        """The parent settle: timestamps by ``np.fromiter`` over
        the entries' lists, dirty flags and scan flags by range."""
        log = self._lazy_runs
        if not log:
            return
        entries = log[:]
        log.clear()
        k = self._log_held
        self._log_held = 0
        lane = self.lane
        lane.log_settles += 1
        lane.log_settled_accesses += k
        if k > lane.log_high_water:
            lane.log_high_water = k
        if len(entries) == 1:
            ids, tier_col = entries[0][0], entries[0][1]
        else:
            ids = np.concatenate([entry[0] for entry in entries])
            tier_col = np.concatenate([entry[1] for entry in entries])
        # Which access is its page's last, without a sort: positions
        # put into the last_ns column itself (np.put keeps the final
        # value on duplicate indices) and read back per access; the
        # column takes those accesses' timestamps below.
        order = np.arange(k, dtype=np.float64)
        np.put(self._last_ns, ids, order)
        last = self._last_ns[ids] == order
        ts = np.fromiter(chain.from_iterable([entry[2] for entry in entries]),
                         np.float64, k)
        scans = np.zeros(k, dtype=bool)
        off = 0
        for span_ids, _, _, wr_ranges, scan_ranges in entries:
            for a, b in wr_ranges:
                self._dirty[span_ids[a:b]] = True
            for a, b in scan_ranges:
                scans[off + a:off + b] = True
            off += span_ids.shape[0]
        np.add.at(self._acc, ids, 1)
        self._last_ns[ids[last]] = ts[last]
        per_tier = np.bincount(tier_col)
        for T in np.flatnonzero(per_tier).tolist():
            self._policy_touch(
                self.tiers[T].policy,
                ids if per_tier[T] == k else ids[tier_col == T])
        if self.tracker is None:
            return
        tracker_block = getattr(self.tracker, "record_block", None)
        if tracker_block is not None:
            tracker_block(ids, scans, 0, k)
            return
        edges = [0, *(np.flatnonzero(scans[1:] != scans[:-1]) + 1).tolist(), k]
        for s, e in zip(edges, edges[1:]):
            self._tracker_batch(ids, s, e, bool(scans[s]))

    def _quantum_hits(self, ids: np.ndarray, segs, qspan: np.ndarray,
                      tier: int, accum: float,
                      seg_demands: list[float]) -> float:
        """The parent hit kernel: one ``occupy_run`` per queue per
        subsegment, counters bumped per subsegment, cut scan on
        every quantum (*tier* is ignored), one note per segment and
        a log entry of ``(ids, qspan, ts, writes, scans)``."""
        del tier
        stats = self.stats
        queues = self._session_queues
        lat_cache = self._lat_cache
        per_tier = stats.per_tier
        tiers = self.tiers
        clock = self._session_clock
        if clock is None:
            clock = self.clock
        q0 = segs[0][0]
        q1 = segs[-1][1]
        if self._log_held + (q1 - q0) > _LOG_SETTLE:
            self._drain_lazy()
        now = clock._now
        pool_demand = stats.demand_time_ns
        rel_cuts = np.nonzero(qspan[1:] != qspan[:-1])[0]
        cut_list = (rel_cuts + (q0 + 1)).tolist()
        cut_list.append(q1)
        ci = 0
        ts: list[float] = []
        writes: list[tuple[int, int]] = []
        scans: list[tuple[int, int]] = []
        for a, b, nbytes, write, is_scan, think_ns in segs:
            lats = lat_cache.get((nbytes, write, is_scan))
            if lats is None:
                lats = self._shape_latencies(nbytes, write, is_scan)
            if write:
                writes.append((a - q0, b - q0))
            if is_scan:
                scans.append((a - q0, b - q0))
            s = a
            while s < b:
                while cut_list[ci] <= s:
                    ci += 1
                e = cut_list[ci]
                if e > b:
                    e = b
                tier_index = int(qspan[s - q0])
                lat = lats[tier_index]
                if think_ns:
                    now += think_ns
                lat_i = lat
                if queues is not None:
                    wait = 0.0
                    bottleneck = None
                    for queue in queues[tier_index]:
                        delay = queue._free_at - now
                        if delay > wait:
                            wait = delay
                            bottleneck = queue
                    if wait > 0.0:
                        self._session_wait_ns += wait
                        bottleneck.note_wait(wait)
                        lat_i = wait + lat
                ts.append(now)
                now += lat_i
                pool_demand += lat_i
                accum += lat_i
                for _ in range(e - s - 1):
                    if think_ns:
                        now += think_ns
                    ts.append(now)
                    now += lat
                    pool_demand += lat
                    accum += lat
                per_tier[tier_index].hits += e - s
                dstats = tiers[tier_index].path.device.stats
                if write:
                    dstats.stores += e - s
                    dstats.store_bytes += (e - s) * nbytes
                else:
                    dstats.loads += e - s
                    dstats.load_bytes += (e - s) * nbytes
                if queues is not None:
                    # One reservation per queue covers the subsegment:
                    # a session's own reservations never push free_at
                    # past its own cursor (analytic latency covers the
                    # service time), so only a head can fold a wait.
                    for queue in queues[tier_index]:
                        queue.occupy_run(now - lat, nbytes, e - s, write)
                s = e
            seg_demands.append(accum)
        stats.accesses += q1 - q0
        stats.demand_time_ns = pool_demand
        clock._now = now
        self._lazy_runs.append((ids[q0:q1], qspan, ts, writes, scans))
        self._log_held += q1 - q0
        self.lane.quantum_spans += 1
        note = self._placement_note
        for a, b, _, _, is_scan, _ in segs:
            note(ids, a, b, is_scan)
        return accum


def parent_kernel(obj):
    """Turn a built pool, or an engine's pool, into the parent-kernel
    twin in place (the twin adds no state); returns *obj*."""
    pool = obj.pool if isinstance(obj, ScaleUpEngine) else obj
    if not isinstance(pool, TieredBufferPool):
        raise TypeError(f"no parent-kernel twin for {type(obj).__name__}")
    pool.__class__ = ParentKernelPool
    return obj
