"""Page-temperature tracking.

Tiering policies need to know which pages are hot. The paper contrasts
two vantage points (Sec 3.1):

* the **OS** tracks temperature by sampling page-table access bits
  (as Meta's TPP does) — cheap but approximate and workload-blind;
* the **database engine** sees every logical page access and "can
  better calculate the utility of keeping a page in a given memory
  tier than the OS" [11].

:class:`ExactTracker` models the engine view; :class:`SampledTracker`
models the OS view with a configurable sampling rate and periodic
aging. Both expose the same small interface.
"""

from __future__ import annotations

import heapq
import math
import random
from itertools import repeat
from typing import Protocol, Sequence

import numpy as np

from ..errors import ConfigError, require_count
from ..sim.ladder import repeat_add_vec

#: Dense heat arrays never grow past this many page ids; larger (or
#: negative) ids spill into a plain dict side table.
_MAX_DENSE_PIDS = 1 << 22
#: Below this run length the scalar loop beats the numpy setup cost.
_VEC_MIN = 64


class TemperatureTracker(Protocol):
    """Interface shared by engine-side and OS-side trackers."""

    def record(self, page_id: int, is_scan: bool = False) -> None:
        """Observe one access to a page."""

    def record_batch(self, page_ids: Sequence[int], start: int, end: int,
                     is_scan: bool = False) -> None:
        """Observe ``page_ids[start:end]`` in order, equivalent to
        calling :meth:`record` once per element. Batch implementations
        must preserve per-access semantics exactly (aging epochs fire
        at the same access index, sampling consumes the same RNG
        draws) — the buffer pool's fast lane relies on it."""

    def heat(self, page_id: int) -> float:
        """Current hotness estimate (higher = hotter)."""

    def hottest(self, n: int) -> list[int]:
        """The *n* hottest tracked pages."""

    def coldest(self, n: int) -> list[int]:
        """The *n* coldest tracked pages."""

    def forget(self, page_id: int) -> None:
        """Stop tracking a page."""


class ExactTracker:
    """Engine-side tracker: exponentially decayed access frequency.

    Each access adds 1 to the page's heat; all heats decay by ``decay``
    per *epoch* (every ``epoch_accesses`` observed accesses), so heat
    approximates recent access frequency. Scan accesses can be
    discounted (``scan_weight``): the engine knows a sequential scan
    will not re-touch a page soon, a key advantage over the OS view.

    The store is a dense ``page_id → heat`` float64 array plus a
    membership bitmap so the buffer pool's block lane can record whole
    windows in a few numpy ops; ids outside the dense range spill into
    a dict side table.  Every update applies the same IEEE additions in
    the same per-page order as a :meth:`record` loop (duplicated ids
    take a left fold of their weight, ``repeat_add_vec``), so heats
    stay bit-identical to the scalar history.
    """

    def __init__(self, decay: float = 0.5, epoch_accesses: int = 10_000,
                 scan_weight: float = 0.1) -> None:
        if not 0.0 < decay <= 1.0:
            raise ConfigError(f"decay must be in (0,1]: {decay}")
        require_count("epoch_accesses", epoch_accesses, 1)
        if not 0.0 <= scan_weight < math.inf:
            raise ConfigError(
                f"scan_weight must be finite and non-negative: {scan_weight}")
        self.decay = decay
        self.epoch_accesses = epoch_accesses
        self.scan_weight = scan_weight
        self._harr = np.zeros(0, dtype=np.float64)
        self._present = np.zeros(0, dtype=bool)
        self._over: dict[int, float] = {}
        self._since_epoch = 0

    @property
    def _heat(self) -> dict[int, float]:
        """Dict view of the tracked heats (membership-exact; ids in
        dense-index order rather than first-touch order)."""
        out = {int(pid): float(self._harr[pid])
               for pid in np.nonzero(self._present)[0]}
        if self._over:
            out.update(self._over)
        return out

    def _ensure(self, max_pid: int) -> None:
        size = self._harr.shape[0]
        if max_pid < size:
            return
        new = max(1024, size * 2)
        while new <= max_pid:
            new *= 2
        new = min(new, _MAX_DENSE_PIDS)
        grown = np.zeros(new, dtype=np.float64)
        grown[:size] = self._harr
        self._harr = grown
        pres = np.zeros(new, dtype=bool)
        pres[:size] = self._present
        self._present = pres

    def _add_one(self, pid: int, weight: float) -> None:
        if 0 <= pid < _MAX_DENSE_PIDS:
            self._ensure(pid)
            self._harr[pid] += weight
            self._present[pid] = True
        else:
            pid = int(pid)
            self._over[pid] = self._over.get(pid, 0.0) + weight

    def record(self, page_id: int, is_scan: bool = False) -> None:
        """Observe one access (scans get a reduced weight)."""
        self._add_one(page_id, self.scan_weight if is_scan else 1.0)
        self._since_epoch += 1
        if self._since_epoch >= self.epoch_accesses:
            self._age()

    def record_batch(self, page_ids: Sequence[int], start: int, end: int,
                     is_scan: bool = False) -> None:
        """Observe a run of accesses; equivalent to a :meth:`record`
        loop. ndarray runs are applied in bulk (one fancy-indexed add
        for distinct ids, a row fold for duplicates); aging fires
        at exactly the same access index as in the scalar loop."""
        self._record_run(page_ids, None, start, end,
                         self.scan_weight if is_scan else 1.0)

    def record_block(self, page_ids: np.ndarray, scans: np.ndarray,
                     start: int, end: int) -> None:
        """Observe ``page_ids[start:end]`` with per-access scan flags —
        equivalent to a :meth:`record` loop over mixed scan/point
        accesses.  Used by the buffer pool's block lane to flush one
        window of deferred tracker updates."""
        self._record_run(page_ids, scans, start, end, 1.0)

    def _record_run(self, page_ids, scans, start: int, end: int,
                    weight: float) -> None:
        """The body of both batch recorders: every access weighs
        *weight* when *scans* is None, else its own flag's weight;
        applied one aging epoch at a time."""
        since = self._since_epoch
        epoch = self.epoch_accesses
        scan_w = self.scan_weight
        if end - start < _VEC_MIN or not isinstance(page_ids, np.ndarray):
            for i in range(start, end):
                self._add_one(page_ids[i], weight if scans is None
                              else scan_w if scans[i] else 1.0)
                since += 1
                if since >= epoch:
                    self._age()
                    since = 0
            self._since_epoch = since
            return
        pos = start
        while pos < end:
            stop = min(end, pos + epoch - since)
            ids = page_ids[pos:stop]
            flags = None if scans is None else scans[pos:stop]
            if flags is None or not flags.any():
                self._apply_uniform(ids, weight)
            elif flags.all():
                self._apply_uniform(ids, scan_w)
            else:
                self._apply_mixed(ids, flags)
            since += stop - pos
            pos = stop
            if since >= epoch:
                self._age()
                since = 0
        self._since_epoch = since

    def _apply_uniform(self, ids: np.ndarray, weight: float) -> None:
        """Bulk-apply one add of ``weight`` per element of ``ids``."""
        lo = int(ids.min())
        hi = int(ids.max())
        if lo < 0 or hi >= _MAX_DENSE_PIDS:
            for pid in ids.tolist():
                self._add_one(pid, weight)
            return
        self._ensure(hi)
        harr = self._harr
        if ids.shape[0] == 1 or bool((ids[1:] > ids[:-1]).all()):
            # Strictly increasing means duplicate-free (scan windows
            # are), so every page takes exactly one add and the
            # sort-based unique can be skipped entirely.
            harr[ids] = harr[ids] + weight
            self._present[ids] = True
            return
        uniq, counts = np.unique(ids, return_counts=True)
        singles = uniq[counts == 1]
        if singles.shape[0]:
            harr[singles] = harr[singles] + weight
        dmask = counts > 1
        if dmask.any():
            dups = uniq[dmask]
            heats = harr[dups]
            repeat_add_vec(heats, weight, counts[dmask].astype(np.int64))
            harr[dups] = heats
        self._present[uniq] = True

    def _apply_mixed(self, ids: np.ndarray, scans: np.ndarray) -> None:
        """Bulk-apply per-access weights (scan-discounted or full)."""
        lo = int(ids.min())
        hi = int(ids.max())
        scan_w = self.scan_weight
        if lo < 0 or hi >= _MAX_DENSE_PIDS:
            for pid, flag in zip(ids.tolist(), scans.tolist()):
                self._add_one(pid, scan_w if flag else 1.0)
            return
        self._ensure(hi)
        # Scans and point accesses usually touch disjoint page sets
        # (OLAP vs OLTP tables); when they do, every page sees a single
        # weight and each group applies as one uniform bulk add —
        # additions to distinct pages are independent, so no sort is
        # needed.
        if hi < (1 << 20):
            s_ids = ids[scans]
            p_ids = ids[~scans]
            mark = np.zeros(hi + 1, dtype=bool)
            mark[s_ids] = True
            if not mark[p_ids].any():
                if p_ids.shape[0]:
                    self._apply_uniform(p_ids, 1.0)
                if s_ids.shape[0]:
                    self._apply_uniform(s_ids, scan_w)
                return
        weights = np.where(scans, scan_w, 1.0)
        order = np.argsort(ids, kind="stable")
        sid = ids[order]
        sw = weights[order]
        n = sid.shape[0]
        first = np.empty(n, dtype=bool)
        first[0] = True
        np.not_equal(sid[1:], sid[:-1], out=first[1:])
        starts = np.nonzero(first)[0]
        counts = np.diff(np.append(starts, n))
        uniq = sid[starts]
        wmin = np.minimum.reduceat(sw, starts)
        wmax = np.maximum.reduceat(sw, starts)
        uniform = wmin == wmax
        harr = self._harr
        smask = uniform & (counts == 1)
        if smask.any():
            singles = uniq[smask]
            harr[singles] = harr[singles] + wmin[smask]
        dmask = uniform & (counts > 1)
        if dmask.any():
            dups = uniq[dmask]
            heats = harr[dups]
            repeat_add_vec(heats, wmin[dmask], counts[dmask].astype(np.int64))
            harr[dups] = heats
        if not uniform.all():
            # A page touched by both scans and point accesses inside one
            # window: additions don't commute across weights, so replay
            # that page's adds in original trace order.
            for gi in np.nonzero(~uniform)[0]:
                pid = int(uniq[gi])
                a = int(starts[gi])
                b = a + int(counts[gi])
                h = float(harr[pid])
                for w in sw[a:b].tolist():
                    h += w
                harr[pid] = h
        self._present[uniq] = True

    def _age(self) -> None:
        self._since_epoch = 0
        if self.decay >= 1.0:
            return
        harr = self._harr
        np.multiply(harr, self.decay, out=harr)
        keep = harr > 1e-6
        np.logical_and(self._present, keep, out=self._present)
        harr[~self._present] = 0.0
        if self._over:
            self._over = {
                pid: h * self.decay for pid, h in self._over.items()
                if h * self.decay > 1e-6
            }

    def heat(self, page_id: int) -> float:
        """Decayed access frequency of the page."""
        if 0 <= page_id < self._harr.shape[0]:
            if self._present[page_id]:
                return float(self._harr[page_id])
            return 0.0
        return self._over.get(int(page_id), 0.0)

    def heat_array(self, page_ids: Sequence[int]) -> np.ndarray:
        """Heats for a batch of pages; elementwise equal to
        :meth:`heat`.  An absent dense row holds 0.0 (aging and
        :meth:`forget` zero it), so ids inside the dense range are one
        gather; the rest read the side table."""
        ids = np.asarray(page_ids, dtype=np.int64)
        harr = self._harr
        if ids.shape[0] and 0 <= ids.min() and ids.max() < harr.shape[0]:
            return harr[ids]
        dense = (ids >= 0) & (ids < harr.shape[0])
        out = np.zeros(ids.shape[0])
        out[dense] = harr[ids[dense]]
        for i in np.flatnonzero(~dense).tolist():
            out[i] = self._over.get(int(ids[i]), 0.0)
        return out

    def hottest(self, n: int) -> list[int]:
        """The *n* pages with highest heat."""
        heat = self._heat
        return heapq.nlargest(n, heat, key=heat.__getitem__)

    def coldest(self, n: int) -> list[int]:
        """The *n* pages with lowest heat."""
        heat = self._heat
        return heapq.nsmallest(n, heat, key=heat.__getitem__)

    def forget(self, page_id: int) -> None:
        """Drop the page's history."""
        if 0 <= page_id < self._harr.shape[0]:
            self._present[page_id] = False
            self._harr[page_id] = 0.0
        else:
            self._over.pop(int(page_id), None)


class SampledTracker:
    """OS-side tracker: sampled accesses, no workload knowledge.

    Models page-table access-bit scanning a la TPP/kstaled: only a
    fraction ``sample_rate`` of accesses is observed, scans look
    exactly like random accesses (the OS cannot tell), and heat is a
    coarse counter aged periodically.
    """

    def __init__(self, sample_rate: float = 0.01, decay: float = 0.5,
                 epoch_accesses: int = 10_000,
                 seed: int | None = 0x5eed) -> None:
        if not 0.0 < sample_rate <= 1.0:
            raise ConfigError(f"sample_rate must be in (0,1]: {sample_rate}")
        if not 0.0 < decay <= 1.0:
            raise ConfigError(f"decay must be in (0,1]: {decay}")
        require_count("epoch_accesses", epoch_accesses, 1)
        self.sample_rate = sample_rate
        self.decay = decay
        self.epoch_accesses = epoch_accesses
        self._rng = random.Random(seed)
        self._heat: dict[int, float] = {}
        self._since_epoch = 0

    def record(self, page_id: int, is_scan: bool = False) -> None:
        """Observe one access; most are missed by sampling, and
        *is_scan* is ignored — the OS cannot distinguish scans."""
        del is_scan  # the OS-side tracker is workload-blind
        self._since_epoch += 1
        if self._since_epoch >= self.epoch_accesses:
            self._age()
        if self._rng.random() >= self.sample_rate:
            return
        self._heat[page_id] = self._heat.get(page_id, 0.0) + 1.0

    def record_batch(self, page_ids: Sequence[int], start: int, end: int,
                     is_scan: bool = False) -> None:
        """Observe a run of accesses; equivalent to a :meth:`record`
        loop. One RNG draw per access in the same order, so sampled
        histories stay identical between scalar and batched paths."""
        del is_scan
        rng_random = self._rng.random
        rate = self.sample_rate
        heat = self._heat
        heat_get = heat.get
        since = self._since_epoch
        epoch = self.epoch_accesses
        for i in range(start, end):
            since += 1
            if since >= epoch:
                self._age()
                since = 0
                heat = self._heat
                heat_get = heat.get
            if rng_random() >= rate:
                continue
            pid = page_ids[i]
            heat[pid] = heat_get(pid, 0.0) + 1.0
        self._since_epoch = since

    def _age(self) -> None:
        self._since_epoch = 0
        if self.decay >= 1.0:
            return
        self._heat = {
            pid: h * self.decay for pid, h in self._heat.items()
            if h * self.decay > 1e-6
        }

    def heat(self, page_id: int) -> float:
        """Sampled hotness estimate."""
        return self._heat.get(page_id, 0.0)

    def heat_array(self, page_ids: np.ndarray) -> np.ndarray:
        """Heats for an id column; elementwise equal to :meth:`heat`,
        without a python call per key."""
        return np.fromiter(
            map(self._heat.get, page_ids.tolist(), repeat(0.0)),
            dtype=np.float64, count=page_ids.shape[0])

    def hottest(self, n: int, min_heat: float = 0.0) -> list[int]:
        """The *n* pages with highest sampled heat, hottest first —
        of those at *min_heat* or above when given, which ranks only
        them (the same list the full ranking cut at the first colder
        page gives: ties keep observation order either way)."""
        heat = self._heat
        pages = heat if min_heat <= 0.0 else [
            page_id for page_id, h in heat.items() if h >= min_heat]
        return heapq.nlargest(n, pages, key=heat.__getitem__)

    def coldest(self, n: int) -> list[int]:
        """The *n* pages with lowest sampled heat (among observed)."""
        return heapq.nsmallest(n, self._heat, key=self._heat.__getitem__)

    def forget(self, page_id: int) -> None:
        """Drop the page's history."""
        self._heat.pop(page_id, None)
