"""Buffer replacement policies.

Classic database eviction policies, each implementing
:class:`ReplacementPolicy`. They operate on opaque integer keys (page
ids within one tier); every tracked key may be chosen as a victim.

The paper (Sec 3.1) argues a database engine "can better calculate the
utility of keeping a page in a given memory tier than the OS" [11];
these policies are the engine-side machinery that claim rests on.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from itertools import chain
from typing import Callable, Protocol, Sequence

import numpy as np

from ..errors import BufferPoolError

#: Keys in ``[0, DENSE_KEYS)`` index dense per-key columns — the stamp
#: column of :class:`LRUPolicy` here, the pool's residency table in
#: :mod:`repro.core.buffer`. Keys outside it stay valid and take the
#: scalar, dict-backed paths.
DENSE_KEYS = 1 << 22

# The ufunc reductions themselves: ``ndarray.min`` / ``.max`` / ``.all``
# and ``np.flatnonzero`` wrap them in one to seven python frames, which
# a per-batch call pays every time.
_min = np.minimum.reduce
_max = np.maximum.reduce
_all = np.logical_and.reduce


def _listed(keys) -> list[int]:
    """A scan's keys as a list of ints."""
    return keys.tolist() if type(keys) is np.ndarray else keys


class ReplacementPolicy(Protocol):
    """Interface every eviction policy implements."""

    def record_insert(self, key: int) -> None:
        """A new page entered the tier."""

    def record_access(self, key: int) -> None:
        """An existing page was touched."""

    def record_access_batch(self, keys: Sequence[int], start: int,
                            end: int) -> None:
        """Touch ``keys[start:end]`` in order; equivalent to calling
        :meth:`record_access` once per element — the same state after
        the batch, and on an untracked key the same error with every
        key before it touched. *keys* is a list of ints; the pool hands
        :class:`LRUPolicy`, whose touch is one array write, the id
        column itself (an integer ndarray)."""

    def remove(self, key: int) -> None:
        """A page left the tier (evicted or migrated)."""

    def victim(self) -> int | None:
        """Choose the page to evict, or None if none is tracked."""

    def __len__(self) -> int:
        """Number of tracked pages."""

    def __contains__(self, key: int) -> bool:
        """Whether the page is tracked."""


def _check_batch(k: int) -> None:
    if k < 0:
        raise BufferPoolError(f"victim batch size must be >= 0: {k}")


class LRUPolicy:
    """Least-recently-used, the textbook default, kept as a column.

    Recency is one int64 per key: ``stamp[key]`` is the sequence number
    of the key's last insert or touch, ``-1`` when untracked. Sequence
    numbers only grow, so ascending stamp *is* the recency order, LRU
    first — what an ordered dict under ``move_to_end`` would hold
    (``tests/core/test_replacement.py`` keeps that implementation as
    the reference model and drives the two side by side).

    * Writes are array writes. A batch of touches stamps its keys
      ``seq, seq + 1, …`` in one put; a key repeated in the batch keeps
      its last stamp, which is where the last of the sequential touches
      would have left it.
    * Reads are lazy. Victims come off a snapshot of ``(key, stamp)``
      pairs sorted by stamp. An entry is live iff the key still carries
      that stamp (a touch, a remove, or a remove-then-reinsert all
      change it), and every key stamped since sorts behind the whole
      snapshot, so the snapshot's live entries, in order, are a prefix
      of the true order. It is re-sorted only when it runs out;
      ``rebuilds`` and ``stale_skipped`` count that work.

    The column is dense over ``[0, DENSE_KEYS)``, grown by doubling to
    the highest key seen. Keys outside that range stay valid: their
    stamps live in a dict, and any batch holding one (or a key the
    call must refuse) runs as the scalar loop instead.
    """

    def __init__(self) -> None:
        self._seq = 0                       # the next stamp
        self._len = 0
        self._far: dict[int, int] = {}      # stamps of non-dense keys
        self._set_column(np.full(1024, -1, dtype=np.int64))
        self._snap_at = 0                   # _seq when last sorted
        self._set_snapshot(self._stamp[:0], self._stamp[:0])
        self.rebuilds = 0
        self.stale_skipped = 0

    def _set_column(self, column: np.ndarray) -> None:
        self._stamp = column
        # Scalar reads and writes go through a memoryview: plain ints,
        # no numpy scalar boxed per call.
        self._view = memoryview(column)
        self._cap = column.shape[0]

    def _set_snapshot(self, keys, stamps) -> None:
        """Install sorted ``(keys, stamps)``: int64 arrays, or lists
        when a non-dense key (which need not fit int64) is tracked."""
        dense = type(keys) is np.ndarray
        self._snap_keys = keys if dense else None
        self._snap_stamps = stamps if dense else None
        self._skeys = memoryview(keys) if dense else keys
        self._sstamps = memoryview(stamps) if dense else stamps
        self._cursor = 0                    # entries before it are dead

    def _reach(self, key: int) -> bool:
        """Grow the column to hold *key*; ``False`` for a non-dense
        key, which it never holds."""
        if not 0 <= key < DENSE_KEYS:
            return False
        cap = self._cap
        while cap <= key:
            cap *= 2
        column = np.full(cap, -1, dtype=np.int64)
        column[:self._cap] = self._stamp
        self._set_column(column)
        return True

    def _stamp_of(self, key: int) -> int:
        if 0 <= key < self._cap:
            return self._view[key]
        return self._far.get(key, -1)

    def _column(self, keys, grow: bool = False):
        """*keys* (non-empty) as an index array into the stamp column,
        or ``None`` when one of them lies outside it or is no integer —
        the scalar loop then decides key by key. *grow* first extends
        the column to the highest dense key."""
        col = keys if type(keys) is np.ndarray else np.asarray(keys)
        if col.ndim != 1 or col.dtype.kind not in "iu":
            return None
        if int(_min(col)) < 0:
            return None
        hi = int(_max(col))
        if hi >= self._cap and not (grow and self._reach(hi)):
            return None
        return col if col.dtype == np.intp else col.astype(np.intp)

    def record_insert(self, key: int) -> None:
        """Track a new page as most-recently used."""
        if 0 <= key < self._cap or self._reach(key):
            view = self._view
            if view[key] >= 0:
                raise BufferPoolError(f"duplicate insert of {key}")
            view[key] = self._seq
        else:
            if key in self._far:
                raise BufferPoolError(f"duplicate insert of {key}")
            self._far[key] = self._seq
        self._seq += 1
        self._len += 1

    def record_insert_batch(self, keys: Sequence[int]) -> None:
        """Track a run of new pages, in order — equivalent to a
        :meth:`record_insert` loop (each lands at the MRU end)."""
        n = len(keys)
        if not n:
            return
        col = self._column(keys, grow=True)
        if col is not None:
            stamp = self._stamp
            if int(_max(stamp[col])) < 0:
                seq = self._seq
                fresh = np.arange(seq, seq + n)
                stamp[col] = fresh
                # A key repeated in the batch holds only its last stamp.
                if _all(stamp[col] == fresh):
                    self._seq = seq + n
                    self._len += n
                    return
                stamp[col] = -1
        # Rare path: a non-dense key, or a key to refuse. Every new key
        # is tracked at its first mention, then the batch is refused
        # with the scalar loop's diagnostic when it repeats a key.
        run = keys.tolist() if type(keys) is np.ndarray else keys
        before = self._len
        for key in run:
            if self._stamp_of(key) < 0:
                self.record_insert(key)
        if self._len != before + n:
            seen: set[int] = set()
            for key in run:
                if key in seen:
                    raise BufferPoolError(f"duplicate insert of {key}")
                seen.add(key)
            raise BufferPoolError(f"duplicate insert in batch of {n} keys")

    def record_access(self, key: int) -> None:
        """Move a page to the MRU end."""
        if 0 <= key < self._cap:
            view = self._view
            if view[key] >= 0:
                view[key] = self._seq
                self._seq += 1
                return
        elif key in self._far:
            self._far[key] = self._seq
            self._seq += 1
            return
        raise BufferPoolError(f"access to untracked {key}")

    def record_access_batch(self, keys: Sequence[int], start: int,
                            end: int) -> None:
        """Move a run of pages to the MRU end, in order: one put of
        consecutive stamps (the last write to a repeated key stands,
        as the last of its sequential touches would)."""
        n = end - start
        if n <= 0:
            return
        run = keys[start:end]
        col = self._column(run)
        if col is not None:
            stamp = self._stamp
            if int(_min(stamp[col])) >= 0:
                seq = self._seq
                stamp[col] = np.arange(seq, seq + n)
                self._seq = seq + n
                return
        # A non-dense key, or an untracked one: the scalar loop touches
        # the keys before it and raises there.
        for key in run.tolist() if type(run) is np.ndarray else run:
            self.record_access(key)

    def remove(self, key: int) -> None:
        """Stop tracking a page."""
        if 0 <= key < self._cap:
            view = self._view
            if view[key] >= 0:
                view[key] = -1
                self._len -= 1
        elif self._far.pop(key, None) is not None:
            self._len -= 1

    def move_batch(self, leaving: np.ndarray, arriving: np.ndarray,
                   hi: int) -> None:
        """A :meth:`remove` loop over *leaving* then a
        :meth:`record_insert_batch` of *arriving*, as one stamp write
        each and without their checks: the caller vouches that both
        are int arrays of distinct keys below *hi* + 1 <=
        ``DENSE_KEYS``, every leaving key tracked and no arriving one
        (a pool committing page moves between tiers)."""
        stamp = self._stamp
        stamp[leaving] = -1
        n = arriving.shape[0]
        if n:
            if hi >= self._cap:
                self._reach(hi)
                stamp = self._stamp
            seq = self._seq
            stamp[arriving] = np.arange(seq, seq + n)
            self._seq = seq + n
        self._len += n - leaving.shape[0]

    def _sorted(self):
        """Every tracked key with its stamp, ascending stamp."""
        stamp = self._stamp
        keys = (stamp >= 0).nonzero()[0]
        stamps = stamp[keys]
        if self._far:
            pairs = sorted(chain(
                zip(stamps.tolist(), keys.tolist()),
                ((s, key) for key, s in self._far.items())))
            return [key for _, key in pairs], [s for s, _ in pairs]
        by_age = stamps.argsort()
        return keys[by_age], stamps[by_age]

    def order(self) -> list[int]:
        """Every tracked page, least recently used first."""
        keys = self._sorted()[0]
        return keys.tolist() if type(keys) is np.ndarray else keys

    def _scan(self, need: int, pop: bool):
        """The first *need* (or all) live snapshot entries from the
        cursor on, removed from the policy if *pop*: an int64 column
        off a dense snapshot, else a list."""
        i = start = self._cursor
        if self._snap_keys is not None:
            keys, stamps = self._snap_keys, self._snap_stamps
            stamp = self._stamp
            end = keys.shape[0]
            parts = []
            width = max(need, 64)           # doubled past each stale run
            while need and i < end:
                j = min(i + width, end)
                chunk = keys[i:j]
                live = (stamp[chunk] == stamps[i:j]).nonzero()[0]
                if live.shape[0] >= need:
                    live = live[:need]
                    j = i + int(live[-1]) + 1
                need -= live.shape[0]
                parts.append(chunk[live])
                i = j
                width *= 2
            if not parts:
                return keys[:0]
            taken = parts[0] if len(parts) == 1 else np.concatenate(parts)
            if pop:
                stamp[taken] = -1
                self._len -= taken.shape[0]
                self.stale_skipped += i - start - taken.shape[0]
                self._cursor = i
            return taken
        skeys, sstamps = self._skeys, self._sstamps
        end = len(skeys)
        found: list[int] = []
        dead = True              # nothing live between start and i
        while len(found) < need and i < end:
            key = skeys[i]
            if self._stamp_of(key) != sstamps[i]:
                if dead:
                    self.stale_skipped += 1
            else:
                found.append(key)
                dead = dead and pop
            i += 1
            if dead:
                self._cursor = i
        if pop:
            for key in found:
                self.remove(key)
        return found

    def _front(self, k: int, pop: bool):
        """The first *k* pages of the recency order, as :meth:`_scan`
        gives them."""
        _check_batch(k)
        found = self._scan(k, pop)
        if len(found) < k and self._snap_at != self._seq:
            # The snapshot ran out with keys stamped behind it: sort
            # them in. A peek starts over, since what it found is
            # still tracked and is in the new snapshot too.
            self._set_snapshot(*self._sorted())
            self._snap_at = self._seq
            self.rebuilds += 1
            if pop:
                more = self._scan(k - len(found), True)
                found = (np.concatenate((found, more))
                         if type(found) is type(more) is np.ndarray
                         else _listed(found) + _listed(more))
            else:
                found = self._scan(k, False)
        return found

    def victim(self) -> int | None:
        """The least-recently-used page: a cursor step over the
        snapshot in plain python — no numpy call per victim."""
        skeys, sstamps = self._skeys, self._sstamps
        view, cap, far = self._view, self._cap, self._far
        i = start = self._cursor
        end = len(skeys)
        while i < end:
            key = skeys[i]
            if (view[key] if 0 <= key < cap
                    else far.get(key, -1)) == sstamps[i]:
                break
            i += 1
        if i > start:
            self._cursor = i
            self.stale_skipped += i - start
        if i < end:
            return key
        found = _listed(self._front(1, False))
        return found[0] if found else None

    def victim_batch(self, k: int) -> list[int]:
        """Pop the k least-recently-used pages in one sweep.

        Order-equivalence to k repeated ``victim()`` + ``remove()``
        rounds: each round takes the first key of the order, and
        removing it leaves the relative order of every other key
        unchanged — so the k-round sequence is exactly the first k
        keys of the initial order, front to back. Only the LRU policy
        has it: the pool's bulk eviction body
        (``TieredBufferPool._evict_apply``) drains LRU tiers only."""
        return _listed(self._front(k, True))

    def peek_batch(self, k: int) -> list[int]:
        """The first *k* keys of the recency order — exactly what
        :meth:`victim_batch` would pop — *without* removing them. Lets
        the pool's block window plan its victims (rescues, dirty flags,
        backing containment) before committing any state change."""
        return _listed(self._front(k, False))

    def front_column(self, k: int) -> np.ndarray:
        """:meth:`peek_batch` as an int64 column, which the pool
        indexes its own columns with: off a dense snapshot no list is
        built (the keys must fit int64, as a pool's page ids do)."""
        found = self._front(k, False)
        if type(found) is np.ndarray:
            return found
        return np.array(found, dtype=np.int64)

    def __len__(self) -> int:
        return self._len

    def __contains__(self, key: int) -> bool:
        return self._stamp_of(key) >= 0


class ClockPolicy:
    """CLOCK (second chance): one reference bit, a sweeping hand."""

    def __init__(self) -> None:
        self._ref: OrderedDict[int, bool] = OrderedDict()

    def record_insert(self, key: int) -> None:
        """Track a new page with its reference bit set."""
        if key in self._ref:
            raise BufferPoolError(f"duplicate insert of {key}")
        self._ref[key] = True

    def record_access(self, key: int) -> None:
        """Set the page's reference bit."""
        if key not in self._ref:
            raise BufferPoolError(f"access to untracked {key}")
        self._ref[key] = True

    def record_access_batch(self, keys: Sequence[int], start: int,
                            end: int) -> None:
        """Set reference bits for a run of pages, in order."""
        ref = self._ref
        for i in range(start, end):
            key = keys[i]
            if key not in ref:
                raise BufferPoolError(f"access to untracked {key}")
            ref[key] = True

    def remove(self, key: int) -> None:
        """Stop tracking a page."""
        self._ref.pop(key, None)

    def victim(self) -> int | None:
        """Sweep: clear reference bits until an unreferenced page is
        found — at most one turn of the hand, which clears every bit
        it passes (amortized O(1) per eviction)."""
        ref = self._ref
        if not ref:
            return None
        while True:
            key, referenced = next(iter(ref.items()))
            ref.move_to_end(key)
            if not referenced:
                return key
            ref[key] = False

    def __len__(self) -> int:
        return len(self._ref)

    def __contains__(self, key: int) -> bool:
        return key in self._ref


class TwoQPolicy:
    """2Q: a FIFO probation queue (A1in) plus an LRU main queue (Am).

    Scan-resistant: a page only reaches the protected LRU queue when it
    is re-referenced after entering probation, so one-shot scans wash
    through A1in without evicting the hot set.
    """

    def __init__(self, probation_fraction: float = 0.25) -> None:
        if not 0.0 < probation_fraction < 1.0:
            raise BufferPoolError(
                f"probation fraction must be in (0,1): {probation_fraction}"
            )
        self.probation_fraction = probation_fraction
        self._a1in: OrderedDict[int, None] = OrderedDict()
        self._am: OrderedDict[int, None] = OrderedDict()

    def record_insert(self, key: int) -> None:
        """New pages enter probation."""
        if key in self._a1in or key in self._am:
            raise BufferPoolError(f"duplicate insert of {key}")
        self._a1in[key] = None

    def record_access(self, key: int) -> None:
        """A re-reference promotes probation pages to the main queue."""
        if key in self._a1in:
            del self._a1in[key]
            self._am[key] = None
        elif key in self._am:
            self._am.move_to_end(key)
        else:
            raise BufferPoolError(f"access to untracked {key}")

    def record_access_batch(self, keys: Sequence[int], start: int,
                            end: int) -> None:
        """Touch a run of pages, in order (promotions included)."""
        record = self.record_access
        for i in range(start, end):
            record(keys[i])

    def remove(self, key: int) -> None:
        """Stop tracking a page."""
        self._a1in.pop(key, None)
        self._am.pop(key, None)

    def victim(self) -> int | None:
        """Prefer evicting from probation when it is over its share."""
        total = len(self)
        a1_target = max(1, int(total * self.probation_fraction))
        queues = (
            (self._a1in, self._am)
            if len(self._a1in) >= a1_target
            else (self._am, self._a1in)
        )
        for queue in queues:
            if queue:
                return next(iter(queue))
        return None

    def __len__(self) -> int:
        return len(self._a1in) + len(self._am)

    def __contains__(self, key: int) -> bool:
        return key in self._a1in or key in self._am


class LRUKPolicy:
    """LRU-K (K=2 by default): evict by K-th most recent reference.

    Pages with fewer than K references are treated as infinitely old on
    their K-th reference and evicted first (classic O'Neil behaviour),
    which also gives scan resistance.
    """

    def __init__(self, k: int = 2) -> None:
        if k < 1:
            raise BufferPoolError(f"K must be >= 1: {k}")
        self.k = k
        self._tick = 0
        self._history: dict[int, deque[int]] = {}

    def record_insert(self, key: int) -> None:
        """Track a new page with one reference."""
        if key in self._history:
            raise BufferPoolError(f"duplicate insert of {key}")
        self._tick += 1
        self._history[key] = deque([self._tick], maxlen=self.k)

    def record_access(self, key: int) -> None:
        """Record another reference timestamp."""
        if key not in self._history:
            raise BufferPoolError(f"access to untracked {key}")
        self._tick += 1
        self._history[key].append(self._tick)

    def record_access_batch(self, keys: Sequence[int], start: int,
                            end: int) -> None:
        """Record reference timestamps for a run of pages, in order."""
        record = self.record_access
        for i in range(start, end):
            record(keys[i])

    def remove(self, key: int) -> None:
        """Stop tracking a page."""
        self._history.pop(key, None)

    def victim(self) -> int | None:
        """The page whose K-th most recent reference is oldest."""
        best_key: int | None = None
        best_rank: tuple[int, int] | None = None
        for key, history in self._history.items():
            if len(history) < self.k:
                rank = (0, history[0])       # < K references: evict first
            else:
                rank = (1, history[0])       # history[0] == K-th recent ref
            if best_rank is None or rank < best_rank:
                best_rank = rank
                best_key = key
        return best_key

    def __len__(self) -> int:
        return len(self._history)

    def __contains__(self, key: int) -> bool:
        return key in self._history


POLICIES: dict[str, Callable[[], ReplacementPolicy]] = {
    "lru": LRUPolicy,
    "clock": ClockPolicy,
    "2q": TwoQPolicy,
    "lruk": LRUKPolicy,
}


def make_policy(name: str) -> ReplacementPolicy:
    """Instantiate a policy by its short name ('lru', 'clock', '2q',
    'lruk')."""
    try:
        return POLICIES[name]()
    except KeyError:
        raise BufferPoolError(
            f"unknown replacement policy {name!r};"
            f" choose from {sorted(POLICIES)}"
        ) from None
