"""Content digests over everything a simulated run or a generated
trace produced, for the byte-identity suites.

Floats are serialised with ``repr`` and columns as raw bytes, so a
digest is sensitive to the last ulp — the byte-identity contract, not
an approximation. ``test_pinned_digests.py`` pins some of them as hex
literals, so a change to what a digest covers must leave those bytes
alone.

Nothing in ``src/`` imports it.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from repro.workloads.traces import AccessBlock

from tests.oracle.traces import from_accesses

#: An AccessBlock's columns, in digest order, with their dtypes.
_TRACE_COLUMNS = (("page_id", np.int64), ("write", np.bool_),
                  ("is_scan", np.bool_), ("nbytes", np.int64),
                  ("think_ns", np.float64))


def _sha256_json(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def pool_payload(pool) -> dict:
    """Every counter and simulated time of a pool's stats."""
    stats = pool.stats
    return {
        "accesses": stats.accesses,
        "misses": stats.misses,
        "writebacks": stats.writebacks,
        "migrations": stats.migrations,
        "demand_time_ns": repr(stats.demand_time_ns),
        "fault_time_ns": repr(stats.fault_time_ns),
        "migration_time_ns": repr(stats.migration_time_ns),
        "per_tier": [tier.snapshot() for tier in stats.per_tier],
    }


def digest_report(engine, report) -> str:
    """Digest an ``engine.run`` report and the pool it left behind."""
    return _sha256_json({
        "total_ns": repr(report.total_ns),
        "demand_ns": repr(report.demand_ns),
        "think_ns": repr(report.think_ns),
        "ops": report.ops,
        "misses": report.misses,
        "migrations": report.migrations,
        "hit_rate": repr(report.hit_rate),
        "tier_hit_rates": [repr(rate) for rate in report.tier_hit_rates],
        "clock_now": repr(engine.pool.clock.now),
        "pool": pool_payload(engine.pool),
    })


def digest_session_report(engine, report) -> str:
    """Digest an ``engine.run_sessions`` report and the pool after it.

    Sessions are keyed and sorted by name, so the digest is
    permutation-invariant by construction.
    """
    return _sha256_json({
        "makespan_ns": repr(report.makespan_ns),
        "clock_now": repr(engine.pool.clock.now),
        "policy": report.policy,
        "sessions": {
            name: {
                "ops": session.ops,
                "demand_ns": repr(session.demand_ns),
                "think_ns": repr(session.think_ns),
                "wait_ns": repr(session.wait_ns),
                "end_ns": repr(session.end_ns),
                "misses": session.misses,
                "migrations": session.migrations,
            }
            for name, session in sorted(report.sessions.items())
        },
        "pool": pool_payload(engine.pool),
    })


def digest_trace(items: list) -> str:
    """Digest the elementwise content of a trace given as a list of
    ``AccessBlock`` chunks or of scalar ``Access`` records — the same
    accesses digest the same in either form."""
    if items and not isinstance(items[0], AccessBlock):
        items = [from_accesses(items)]
    digest = hashlib.sha256()
    for name, dtype in _TRACE_COLUMNS:
        column = np.concatenate([getattr(block, name) for block in items])
        digest.update(np.ascontiguousarray(column, dtype).tobytes())
    return digest.hexdigest()


def digest_table(table) -> str:
    """Digest the raw bytes of every column of a ``TenantTable``."""
    digest = hashlib.sha256()
    for name, column in table.columns().items():
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(column).tobytes())
    return digest.hexdigest()
