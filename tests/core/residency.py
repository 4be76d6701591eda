"""What the differential suites read of a pool's residency table,
through its public surface only (``resident_in`` / ``frame_of``).

Nothing in ``src/`` imports it.
"""

from __future__ import annotations


def resident_ids(pool) -> list[int]:
    """Every resident page id, tier by tier in install order."""
    return [pid for tier_index in range(len(pool.tiers))
            for pid in pool.resident_in(tier_index)]


def frame_rows(pool) -> dict[int, tuple]:
    """``(tier, accesses, last_access_ns, dirty)`` per resident
    page. Read through frame views, which settle the pool's deferred
    hit log first — recency order and tracker heat read after this are
    settled too."""
    rows = {}
    for pid in resident_ids(pool):
        frame = pool.frame_of(pid)
        rows[pid] = (frame.tier_index, frame.accesses,
                     frame.last_access_ns, frame.dirty)
    return rows
