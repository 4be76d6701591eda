"""The frozen OS-side sampler: one ``random.Random`` draw per access.

:class:`repro.core.temperature.SampledTracker` draws its MT19937 stream
in bulk through numpy. This module is what it is held to: the tracker
as it was written one draw at a time, kept verbatim. The sampler
differential (``tests/core/test_sampler_stream.py``) drives the two
side by side and compares heats, their insertion order, the epoch
counter and the stream after every call.

Nothing in ``src/`` imports it.
"""

from __future__ import annotations

import heapq
import random
from itertools import repeat
from typing import Sequence

import numpy as np

from repro.errors import ConfigError, require_count


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
