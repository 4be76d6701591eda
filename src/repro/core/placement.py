"""Data-placement policies across memory tiers.

These answer the Sec 3.1 research questions: who should decide where a
page lives — the OS or the database engine — and how should data
structures span conventional and CXL memory?

* :class:`OSPagingPolicy` — what Meta's TPP does: admit to fast
  memory, sample access bits, demote cold pages under memory pressure,
  promote pages the sampler happens to observe. Workload-blind.
* :class:`DbCostPolicy` — the paper's position [11]: the engine sees
  every logical access, discounts sequential scans, and periodically
  solves "hottest pages in the fastest tier" exactly.
* :class:`StaticPolicy` — explicit placement by page class, modelling
  the HTAP configuration of Sec 3.1 (OLTP on local DRAM, OLAP data
  structures on CXL, no interference).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Protocol, Sequence

import numpy as np

from ..errors import BufferPoolError, require_count
from .temperature import ExactTracker, SampledTracker

if TYPE_CHECKING:  # pragma: no cover
    from .buffer import TieredBufferPool


class PlacementPolicy(Protocol):
    """Interface the buffer pool drives."""

    def attach(self, pool: "TieredBufferPool") -> None:
        """Bind the policy to its pool (called once by the pool)."""

    def choose_admit_tier(self, page_id: int, is_scan: bool = False) -> int:
        """Tier index for a freshly faulted page."""

    def choose_admit_tiers(self, page_ids: "np.ndarray",
                           is_scan: bool = False) -> "np.ndarray | None":
        """Admit tiers for a run of distinct fresh faults, as one int
        array — or None when the policy cannot answer in bulk.

        The contract: element *i* must equal what
        :meth:`choose_admit_tier` would have returned for
        ``page_ids[i]`` with the first *i* pages of the run already
        installed (each install raising its tier's resident count by
        one; a full admit tier stays full because the eviction cascade
        frees a slot before the install lands). Returning None sends
        the whole run down the scalar fault path — always correct."""

    def on_access(self, page_id: int, tier_index: int,
                  is_scan: bool = False) -> None:
        """Observe an access; may migrate pages as a side effect."""

    def demote_target(self, tier_index: int) -> int | None:
        """Where evictions from a tier drain: a slower tier index, or
        None for backing storage."""

    def fast_headroom(self) -> int:
        """How many consecutive accesses :meth:`on_access` could
        observe *right now* without any side effect (migration,
        rebalance, promotion pass). The buffer pool's fast lane
        processes at most this many accesses analytically, then routes
        the next one through the scalar path so periodic triggers fire
        with exactly the state they would have seen access-by-access.
        Returning 0 disables batching (the safe default)."""

    def note_accesses(self, page_ids: Sequence[int], start: int,
                      end: int, is_scan: bool = False) -> None:
        """Observe ``page_ids[start:end]`` at once. Called by the fast
        lane only for runs within :meth:`fast_headroom`, so the
        implementation must be side-effect-equivalent to the scalar
        :meth:`on_access` loop minus the (unreachable) periodic
        triggers."""


class _BasePolicy:
    """Shared plumbing: pool binding and cascade demotion.

    Subclasses that override :meth:`on_access` with *periodic* side
    effects must override :meth:`fast_headroom` /
    :meth:`note_accesses` in tandem; the inherited defaults disable
    batching entirely, which is always correct, just slower.
    """

    def __init__(self) -> None:
        self._pool: "TieredBufferPool | None" = None

    def attach(self, pool: "TieredBufferPool") -> None:
        """Bind to the owning pool."""
        self._pool = pool

    def fast_headroom(self) -> int:
        """Conservative default: no batching, every access observed
        through :meth:`on_access`."""
        return 0

    def choose_admit_tiers(self, page_ids: np.ndarray,
                           is_scan: bool = False) -> np.ndarray | None:
        """Conservative default: no bulk answer, scalar fault path."""
        del page_ids, is_scan
        return None

    def _fill_then_steady(self, n: int, steady_tier: int) -> np.ndarray:
        """Admit tiers for *n* first-with-headroom admissions.

        Models the install feedback exactly: tier *i* receives its
        current free-slot count of admissions, then the run moves to
        tier *i+1*; once every tier is full each further fault admits
        to *steady_tier* (whose eviction cascade keeps counts pinned,
        so the answer never changes again)."""
        pool = self.pool
        frees = [
            max(0, tier.capacity_pages - pool.tier_residents(index))
            for index, tier in enumerate(pool.tiers)
        ]
        total_free = sum(frees)
        if total_free == 0:
            return np.full(n, steady_tier, dtype=np.int64)
        fill = np.repeat(
            np.arange(len(frees), dtype=np.int64),
            np.minimum(frees, n),
        )[:n]
        if fill.shape[0] >= n:
            return fill
        steady = np.full(n - fill.shape[0], steady_tier, dtype=np.int64)
        return np.concatenate([fill, steady])

    def note_accesses(self, page_ids: Sequence[int], start: int,
                      end: int, is_scan: bool = False) -> None:
        """Unreachable under the zero default headroom."""
        raise BufferPoolError(
            f"{type(self).__name__}.note_accesses called despite a"
            " zero fast_headroom; override both together"
        )

    @property
    def pool(self) -> "TieredBufferPool":
        """The bound pool (raises if unattached)."""
        if self._pool is None:
            raise BufferPoolError("policy not attached to a pool")
        return self._pool

    def demote_target(self, tier_index: int) -> int | None:
        """Cascade: tier i drains into tier i+1; the last tier drains
        to storage."""
        if tier_index + 1 < len(self.pool.tiers):
            return tier_index + 1
        return None


class StaticPolicy(_BasePolicy):
    """Fixed placement by page class; no migration.

    ``classifier`` maps a page id to a tier index. Pages never move;
    evictions drain straight to storage so tiers stay isolated (the
    HTAP property: OLTP pages can never be pushed out by OLAP pages).
    """

    def __init__(self, classifier: Callable[[int], int]) -> None:
        super().__init__()
        self.classifier = classifier

    def choose_admit_tier(self, page_id: int, is_scan: bool = False) -> int:
        """The class-assigned tier, clamped to the available tiers."""
        del is_scan
        tier = self.classifier(page_id)
        return max(0, min(tier, len(self.pool.tiers) - 1))

    def choose_admit_tiers(self, page_ids: np.ndarray,
                           is_scan: bool = False) -> np.ndarray | None:
        """Classifier per id (state-independent, so the run needs no
        install feedback), clamped in one vector op."""
        del is_scan
        classify = self.classifier
        tiers = np.fromiter(
            (classify(pid) for pid in page_ids.tolist()),
            dtype=np.int64, count=page_ids.shape[0],
        )
        return np.clip(tiers, 0, len(self.pool.tiers) - 1)

    def on_access(self, page_id: int, tier_index: int,
                  is_scan: bool = False) -> None:
        """Static placement: nothing to do."""

    def fast_headroom(self) -> int:
        """No periodic triggers: runs of any length are safe."""
        return 1 << 30

    def note_accesses(self, page_ids: Sequence[int], start: int,
                      end: int, is_scan: bool = False) -> None:
        """Static placement observes nothing."""

    # Ignores the scan flag (here: everything): the block lane may
    # merge notes across mixed-shape segments into one in-order call.
    note_accesses.scan_blind = True

    def demote_target(self, tier_index: int) -> int | None:
        """Straight to storage — tiers are isolated."""
        return None


class OSPagingPolicy(_BasePolicy):
    """TPP-style OS page placement (ASPLOS'23, paper ref [34]).

    Behaviour modelled:

    * new pages are admitted to the fast (top) tier — TPP's
      "allocate local, demote later";
    * a sampled tracker observes a small fraction of accesses (the
      page-table access-bit scan);
    * every ``check_interval`` accesses, pages the sampler considers
      hot but that live in slow tiers are promoted, as long as the
      fast tier is below its high watermark;
    * scans are invisible: the OS cannot tell a scan from hot traffic.
    """

    def __init__(self, sample_rate: float = 0.01,
                 check_interval: int = 2_000,
                 promote_min_heat: float = 2.0,
                 high_watermark: float = 0.95,
                 low_watermark: float = 0.85,
                 max_moves_per_check: int = 64) -> None:
        super().__init__()
        if not 0.0 < low_watermark <= high_watermark <= 1.0:
            raise BufferPoolError("invalid watermarks")
        require_count("check_interval", check_interval, 1)
        require_count("max_moves_per_check", max_moves_per_check, 0)
        self.tracker = SampledTracker(sample_rate=sample_rate)
        self.check_interval = check_interval
        self.promote_min_heat = promote_min_heat
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        self.max_moves_per_check = max_moves_per_check
        self._accesses = 0

    def choose_admit_tier(self, page_id: int, is_scan: bool = False) -> int:
        """Admit to the fast tier if it has headroom, else the next
        tier down (first-touch NUMA-style allocation)."""
        del page_id, is_scan
        pool = self.pool
        for index, tier in enumerate(pool.tiers):
            if pool.tier_residents(index) < tier.capacity_pages:
                return index
        return len(pool.tiers) - 1

    def choose_admit_tiers(self, page_ids: np.ndarray,
                           is_scan: bool = False) -> np.ndarray | None:
        """First-touch fill, then steady admission to the last tier
        (once every tier is full the scalar loop always lands there)."""
        del is_scan
        return self._fill_then_steady(page_ids.shape[0],
                                      len(self.pool.tiers) - 1)

    def on_access(self, page_id: int, tier_index: int,
                  is_scan: bool = False) -> None:
        """Sample the access; periodically run the promotion scan."""
        del tier_index
        self.tracker.record(page_id, is_scan=is_scan)
        self._accesses += 1
        if self._accesses % self.check_interval == 0:
            self._demote_pass()
            self._promote_pass()

    def fast_headroom(self) -> int:
        """Accesses until the next demote/promote check could fire."""
        return self.check_interval - 1 - (
            self._accesses % self.check_interval
        )

    def note_accesses(self, page_ids: Sequence[int], start: int,
                      end: int, is_scan: bool = False) -> None:
        """Feed the sampler and advance the check counter; by the
        headroom contract no check boundary lies inside the run."""
        self.tracker.record_batch(page_ids, start, end, is_scan=is_scan)
        self._accesses += end - start

    # The sampler needs the ids in order but cannot tell a scan (the
    # OS view), so mixed-shape segments merge into one in-order call.
    note_accesses.scan_blind = True

    def _demote_pass(self) -> None:
        """kswapd-style: keep the fast tier below its high watermark by
        demoting the coldest (least-sampled) pages to the next tier.

        Each move takes the fast tier down by exactly one page, so the
        moves are the first ``min(budget, residents - low)`` unpinned
        pages of the heat order (ties in residency order): a prefix
        that much longer than the pins is all that is ever read, and
        it goes to the pool as one batch."""
        pool = self.pool
        if len(pool.tiers) < 2:
            return
        fast = pool.tiers[0]
        high = int(fast.capacity_pages * self.high_watermark)
        low = int(fast.capacity_pages * self.low_watermark)
        residents = pool.tier_residents(0)
        if residents < high:
            return
        moves = min(self.max_moves_per_check, residents - low)
        if moves <= 0:
            return
        ids, tiers = pool.resident_order()
        ids = ids[tiers == 0]
        coldest, _ = heat_order_prefix(ids, self.tracker.heat_array(ids),
                                       moves + pool.pinned_pages)
        coldest = coldest[pool.pin_counts(coldest) == 0][:moves]
        pool.migrate_batch(coldest, np.ones_like(coldest))

    def _promote_pass(self) -> None:
        """Promote the hottest sampled pages living in slow tiers
        while the fast tier is below its high watermark. The exits
        that need no ranking are tested first, and only pages at or
        above ``promote_min_heat`` are ranked (the ranking is stable,
        so that is the same prefix the full ranking would yield)."""
        pool = self.pool
        budget = self.max_moves_per_check
        limit = int(pool.tiers[0].capacity_pages * self.high_watermark)
        if budget == 0 or pool.tier_residents(0) >= limit:
            return
        for page_id in self.tracker.hottest(4 * budget,
                                            self.promote_min_heat):
            tier_index = pool.tier_of(page_id)
            if tier_index is None or tier_index == 0 or (
                    pool.pinned_pages and pool.is_pinned(page_id)):
                continue
            pool.migrate(page_id, 0)
            budget -= 1
            if budget == 0 or pool.tier_residents(0) >= limit:
                break


class DbCostPolicy(_BasePolicy):
    """Engine-driven cost-based placement (the paper's position).

    The engine tracks exact, scan-discounted page heat and periodically
    re-solves the placement: the hottest pages belong in the fastest
    tier. Pages faulted in by scans are admitted directly to the CXL
    tier so a one-shot analytical scan never displaces the
    transactional working set (Sec 3.1's HTAP motivation).
    """

    def __init__(self, rebalance_interval: int = 5_000,
                 max_moves_per_rebalance: int = 128,
                 scan_admit_slow: bool = True,
                 tracker: ExactTracker | None = None) -> None:
        super().__init__()
        require_count("rebalance_interval", rebalance_interval, 1)
        require_count("max_moves_per_rebalance", max_moves_per_rebalance, 0)
        self.rebalance_interval = rebalance_interval
        self.max_moves_per_rebalance = max_moves_per_rebalance
        self.scan_admit_slow = scan_admit_slow
        self._tracker = tracker
        self._accesses = 0
        #: Rebalance counters, reported by :meth:`snapshot`; a skip is a
        #: candidate passed over as pinned (or evicted mid-solve).
        self.rebalances = 0
        self.moves = 0
        self.pairs_cut_unprofitable = 0
        self.pinned_skips = 0

    def attach(self, pool: "TieredBufferPool") -> None:
        """Bind, share the pool's exact tracker, and register the
        rebalance counters as the ``placement`` metrics namespace."""
        super().attach(pool)
        pool.ctx.register("placement", self)
        if self._tracker is None:
            tracker = pool.tracker
            if not isinstance(tracker, ExactTracker):
                tracker = ExactTracker()
            self._tracker = tracker

    @property
    def tracker(self) -> ExactTracker:
        """The engine-side exact temperature tracker."""
        if self._tracker is None:
            raise BufferPoolError("policy not attached to a pool")
        return self._tracker

    def choose_admit_tier(self, page_id: int, is_scan: bool = False) -> int:
        """Admit scans to the slow tier; everything else to the
        fastest tier with headroom."""
        pool = self.pool
        if is_scan and self.scan_admit_slow and len(pool.tiers) > 1:
            return 1
        for index, tier in enumerate(pool.tiers):
            if pool.tier_residents(index) < tier.capacity_pages:
                return index
        return 0

    def choose_admit_tiers(self, page_ids: np.ndarray,
                           is_scan: bool = False) -> np.ndarray | None:
        """Scans admit straight to the slow tier (state-independent);
        point faults fill first-with-headroom then steady at tier 0."""
        pool = self.pool
        if is_scan and self.scan_admit_slow and len(pool.tiers) > 1:
            return np.ones(page_ids.shape[0], dtype=np.int64)
        return self._fill_then_steady(page_ids.shape[0], 0)

    def on_access(self, page_id: int, tier_index: int,
                  is_scan: bool = False) -> None:
        """Count accesses; rebalance placement periodically."""
        del page_id, tier_index, is_scan  # pool already fed the tracker
        self._accesses += 1
        if self._accesses % self.rebalance_interval == 0:
            self.rebalance()

    def fast_headroom(self) -> int:
        """Accesses until the next rebalance could fire."""
        return self.rebalance_interval - 1 - (
            self._accesses % self.rebalance_interval
        )

    def note_accesses(self, page_ids: Sequence[int], start: int,
                      end: int, is_scan: bool = False) -> None:
        """Advance the rebalance counter (the pool feeds the shared
        tracker); by the headroom contract no rebalance boundary lies
        inside the run."""
        del page_ids, is_scan
        self._accesses += end - start

    # Only the count matters (the pool feeds the shared tracker), so
    # the block lane may merge notes across mixed-shape segments.
    note_accesses.scan_blind = True

    def rebalance(self) -> int:
        """Promote the hottest misplaced pages / demote the coldest.

        Returns the number of migrations performed. The solve is
        greedy: fill free fast-tier frames with the hottest slow
        pages, then pair the hottest slow pages with the coldest fast
        residents and swap while profitable. At most
        ``max_moves_per_rebalance`` pages move, so only the head of
        each heat order is ever read: :func:`heat_order_prefix`
        selects it in O(residents) from one residency snapshot
        (:meth:`TieredBufferPool.resident_order`) and one heat gather,
        and each phase hands its moves to the pool as one
        :meth:`TieredBufferPool.migrate_batch`.
        """
        pool = self.pool
        if len(pool.tiers) < 2:
            return 0
        self.rebalances += 1
        max_moves = self.max_moves_per_rebalance
        ids, tiers = pool.resident_order()
        heats = self.tracker.heat_array(ids)
        fast, slow = range(1), range(1, len(pool.tiers))
        # A candidate is passed over only when it is pinned, or in the
        # swap phase evicted by the one make-room described there, so
        # a prefix this much longer than the budget holds every move
        # the full order would make.
        spare = pool.pinned_pages + 1
        moves = 0
        headroom = pool.tiers[0].capacity_pages - pool.tier_residents(0)
        if headroom > 0:
            # Fill unused fast capacity with the hottest slow pages.
            hot, _ = _snapshot_prefix(
                heats, tiers, slow, min(headroom, max_moves + spare),
                reverse=True)
            fill = []
            for page_id, pins in zip(ids[hot].tolist(),
                                     pool.pin_counts(ids[hot]).tolist()):
                if len(fill) == max_moves:
                    break
                if pins:
                    self.pinned_skips += 1
                else:
                    fill.append(page_id)
            if fill:
                pool.migrate_batch(np.array(fill), np.zeros(len(fill), int))
                moves = len(fill)
                tiers = pool.resident_order()[1]
        # Swap: hottest slow page vs coldest fast page.
        budget = (max_moves - moves) // 2
        if budget > 0:
            depth = budget + spare
            hot, hs = _snapshot_prefix(heats, tiers, slow, depth,
                                       reverse=True)
            cold, hf = _snapshot_prefix(heats, tiers, fast, depth)
            pairs = min(hot.shape[0], cold.shape[0])
            # Heat is static during the solve, so the profitability
            # break falls at the first unprofitable pair.
            ok = hs[:pairs] > hf[:pairs] + 1e-9
            if not ok.all():
                cut = int(ok.argmin())
                self.pairs_cut_unprofitable += pairs - cut
                pairs = cut
            hot_slow, cold_fast = ids[hot[:pairs]], ids[cold[:pairs]]
            pinned = pool.pin_counts(hot_slow) | pool.pin_counts(cold_fast)
            # With every slow tier full, the first demotion cascades
            # to an eviction — perhaps of a later pair's slow page. A
            # swap leaves the slow tiers one page short of full from
            # then on, so it is the only one.
            evicts = all(pool.tier_residents(i) >= pool.tiers[i].capacity_pages
                         for i in range(1, len(pool.tiers)))
            evicted = False
            swaps: list[int] = []
            for fast_pid, slow_pid, pins in zip(
                    cold_fast.tolist(), hot_slow.tolist(), pinned.tolist()):
                if budget == 0:
                    break
                if pins or (evicted and pool.tier_of(slow_pid) is None):
                    self.pinned_skips += 1
                    continue
                budget -= 1
                if evicts:
                    # Run that pair now; judge the rest on what is
                    # left — its own slow page first: when that was the
                    # slow tier's victim, nothing is promoted, the freed
                    # fast frame stays free and the slow tiers stay full
                    # for the next pair.
                    pool.migrate(fast_pid, 1)
                    moves += 1
                    evicted = True
                    if pool.tier_of(slow_pid) is None:
                        self.pinned_skips += 1
                    else:
                        pool.migrate(slow_pid, 0)
                        moves += 1
                        evicts = False
                else:
                    swaps += (fast_pid, slow_pid)
            if swaps:
                # Each fast page down one tier, then its slow partner
                # into the freed frame.
                pool.migrate_batch(np.array(swaps),
                                   1 - np.arange(len(swaps)) % 2)
            moves += len(swaps)
        self.moves += moves
        return moves

    def snapshot(self) -> dict:
        """Rebalance counters (metrics snapshot protocol)."""
        return {
            "rebalances": self.rebalances,
            "moves": self.moves,
            "pairs_cut_unprofitable": self.pairs_cut_unprofitable,
            "pinned_skips": self.pinned_skips,
        }


def _snapshot_prefix(heats: np.ndarray, tiers: np.ndarray, wanted: range,
                     k: int, reverse: bool = False):
    """:func:`heat_order_prefix` over the snapshot entries held in the
    *wanted* tiers, tier-major (each in snapshot order): positions and
    heats. When the snapshot's extreme heat is held *k* times inside,
    those ties are the prefix and nothing is listed or gathered."""
    if k > 0 and heats.shape[0]:
        ties = heats == (heats.max() if reverse else heats.min())
        per_tier = [ties & (tiers == t) for t in wanted]
        if sum(np.count_nonzero(mask) for mask in per_tier) >= k:
            pick = np.concatenate([_first_set(mask, k)
                                   for mask in per_tier])[:k]
            return pick, heats[pick]
    members = np.concatenate([np.flatnonzero(tiers == t) for t in wanted])
    return heat_order_prefix(members, heats[members], k, reverse)


def _first_set(mask: np.ndarray, k: int) -> np.ndarray:
    """Positions of the first *k* set entries of *mask* (all, if
    fewer), read a widening chunk at a time."""
    found, start, width = [np.empty(0, dtype=np.intp)], 0, 1024
    while k > 0 and start < mask.shape[0]:
        hit = np.flatnonzero(mask[start:start + width])[:k] + start
        found.append(hit)
        k -= hit.shape[0]
        start += width
        width *= 4
    return np.concatenate(found)


def heat_order_prefix(page_ids: np.ndarray, heats: np.ndarray, k: int,
                      reverse: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The first *k* of *page_ids* in heat order, with their heats:
    ``sorted(page_ids, key=heat, reverse=reverse)[:k]``, ties in
    input order, without sorting the rest.

    When the extreme heat's ties alone fill the *k* (a warm scan leaves
    a few heats over thousands of pages), they are its first *k*.
    Otherwise one partition finds the k-th key; every strictly better
    id plus the earliest ties make up the k, and only those are
    sorted."""
    n = heats.shape[0]
    if k <= 0 or n == 0:
        return page_ids[:0], heats[:0]
    keys = -heats if reverse else heats
    ties = keys == keys.min()
    if np.count_nonzero(ties) >= min(k, n):
        pick = _first_set(ties, k)
    elif k < n:
        kth = np.partition(keys, k - 1)[k - 1]
        better = np.flatnonzero(keys < kth)
        ties = np.flatnonzero(keys == kth)[:k - better.shape[0]]
        pick = np.concatenate([better, ties])
        pick = pick[np.argsort(keys[pick], kind="stable")]
    else:
        pick = np.argsort(keys, kind="stable")
    return page_ids[pick], heats[pick]
