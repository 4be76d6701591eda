"""Reference oracle for ``DbCostPolicy.rebalance`` and pool migration.

This is the implementation the repository shipped before rebalance
learned to select instead of sort, kept verbatim (modulo ``self`` →
explicit arguments, and the fixes marked below) as the specification
the fast code is tested against: a full stable heat sort of both tiers,
movability judged pair by pair at the moment the pair is reached, and
one scalar ``migrate`` per page with its own bookkeeping body.

Nothing in ``src/`` imports it.
"""

from __future__ import annotations

import numpy as np

from repro.core.frame import SLOT, TIER
from repro.core.placement import DbCostPolicy
from repro.errors import BufferPoolError


def reference_migrate(pool, page_id, to_tier: int) -> float:
    """The scalar ``migrate`` + ``_migrate_locked`` pair (promotion
    form: migration time charged, clock advanced)."""
    if pool._lazy_runs:
        pool._drain_lazy()
    frame = pool.frame_of(page_id)
    if frame is None:
        raise BufferPoolError(f"cannot migrate non-resident {page_id}")
    if frame.pinned:
        raise BufferPoolError(f"cannot migrate pinned page {page_id}")
    if not 0 <= to_tier < len(pool.tiers):
        raise BufferPoolError(f"invalid tier {to_tier}")
    from_tier = frame.tier_index
    clock = pool._session_clock
    if from_tier == to_tier:
        (clock if clock is not None else pool.clock).advance(0.0)
        return 0.0
    src = pool.tiers[from_tier]
    dst = pool.tiers[to_tier]
    if pool._resident_counts[to_tier] < dst.capacity_pages:
        elapsed = 0.0
    else:
        elapsed = pool._make_room(to_tier)
        # The pool refuses a move whose own make-room evicted the page
        # (it used to mark the evicted page resident); so does this.
        if pool.tier_of(page_id) != from_tier:
            raise BufferPoolError(f"page {page_id} was evicted making room"
                                  " for its own migration")
    page_size = pool.page_size
    rw = pool._mig_rw.get((from_tier, to_tier))
    if rw is None:
        rw = (src.path.read_time(page_size),
              dst.path.write_time(page_size))
        pool._mig_rw[(from_tier, to_tier)] = rw
    else:
        src_stats = src.path.device.stats
        src_stats.loads += 1
        src_stats.load_bytes += page_size
        dst_stats = dst.path.device.stats
        dst_stats.stores += 1
        dst_stats.store_bytes += page_size
    elapsed += rw[0]
    elapsed += rw[1]
    src.policy.remove(page_id)
    dst.policy.record_insert(page_id)
    counts = pool._resident_counts
    counts[from_tier] -= 1
    counts[to_tier] += 1
    pool._set(page_id, TIER, to_tier)
    pool._ord_tier[pool._get(page_id, SLOT)] = to_tier
    stats = pool.stats
    stats.migrations += 1
    stats.migration_time_ns += elapsed
    trace = pool._trace
    if trace.enabled:
        now = (pool._session_clock or pool.clock).now
        trace.emit_span(
            "pool.promotion", "pool", now, now + elapsed,
            {"page": page_id, "from": src.name, "to": dst.name},
        )
    tier_stats = stats.per_tier[to_tier]
    tier_stats.promotions_in += 1
    residents = counts[to_tier]
    if residents > tier_stats.resident_peak:
        tier_stats.resident_peak = residents
    (clock if clock is not None else pool.clock).advance(elapsed)
    return elapsed


def migrate_loop(pool, page_ids, to_tiers) -> float:
    """What ``migrate_batch`` must be sequence-equivalent to."""
    total = 0.0
    for page_id, to_tier in zip(page_ids, to_tiers):
        total += reference_migrate(pool, page_id, to_tier)
    return total


def sorted_with_heat(tracker, page_ids, reverse: bool = False):
    """Residents ordered by tracker heat, ties in input order, plus
    the heats in that order when the bulk gather was used."""
    if len(page_ids) < 64:
        if isinstance(page_ids, np.ndarray):
            page_ids = page_ids.tolist()
        return sorted(page_ids, key=tracker.heat, reverse=reverse), None
    ids = np.asarray(page_ids, dtype=np.int64)
    heats = tracker.heat_array(ids)
    order = np.argsort(-heats if reverse else heats, kind="stable")
    return ids[order].tolist(), heats[order]


def reference_rebalance(policy: DbCostPolicy) -> int:
    """The full-sort greedy solve, one ``migrate`` per page."""
    pool = policy.pool
    if len(pool.tiers) < 2:
        return 0
    tracker = policy.tracker
    fast_capacity = pool.tiers[0].capacity_pages

    def residents(tier_range):
        # Fixed with the fast solve: ``resident_order`` settles the
        # pool's deferred hit log, so a solve called straight after an
        # array-lane run ranks by current heats in both phases.
        ids, tiers = pool.resident_order()
        chunks = [ids[tiers == i] for i in tier_range]
        return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)

    def movable(page_id) -> bool:
        frame = pool.frame_of(page_id)
        return frame is not None and not frame.pin_count

    slow_tiers = range(1, len(pool.tiers))
    fast_residents = residents(range(1))
    slow_residents = residents(slow_tiers)
    moves = 0
    headroom = fast_capacity - len(fast_residents)
    if headroom > 0:
        candidates = sorted_with_heat(
            tracker, slow_residents, reverse=True)[0][:headroom]
        for page_id in candidates:
            if moves >= policy.max_moves_per_rebalance:
                return moves
            if movable(page_id):
                reference_migrate(pool, page_id, 0)
                moves += 1
        fast_residents = residents(range(1))
        slow_residents = residents(slow_tiers)
    hot_slow, hs = sorted_with_heat(tracker, slow_residents, reverse=True)
    cold_fast, hf = sorted_with_heat(tracker, fast_residents)
    pairs = min(len(hot_slow), len(cold_fast))
    if hs is not None and hf is not None:
        ok = hs[:pairs] > hf[:pairs] + 1e-9
        pairs = pairs if ok.all() else int(ok.argmin())
    skipped = 0
    for i in range(pairs):
        slow_pid = hot_slow[i]
        fast_pid = cold_fast[i]
        if moves + skipped + 2 > policy.max_moves_per_rebalance:
            break
        if (hs is None or hf is None) and \
                tracker.heat(slow_pid) <= tracker.heat(fast_pid) + 1e-9:
            break
        if not (movable(slow_pid) and movable(fast_pid)):
            continue
        reference_migrate(pool, fast_pid, 1)
        # The one departure from the shipped code, fixed here and in
        # the fast solve together: that demotion's own make-room may
        # have evicted the slow partner (it used to raise "cannot
        # migrate non-resident"). The pair then promotes nothing and
        # still spends its share of the budget.
        if pool.frame_of(slow_pid) is not None:
            reference_migrate(pool, slow_pid, 0)
            moves += 2
        else:
            moves += 1
            skipped += 1
    return moves


class OracleDbCostPolicy(DbCostPolicy):
    """``DbCostPolicy`` whose periodic solve is the reference one."""

    def rebalance(self) -> int:
        return reference_rebalance(self)
