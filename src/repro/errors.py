"""Exception hierarchy for the repro library.

Every error raised deliberately by the library derives from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors such as ``TypeError``.
"""

from __future__ import annotations

import math

import numpy as np


class ReproError(Exception):
    """Base class for all library errors."""


class ConfigError(ReproError):
    """A device, link, or engine was configured with invalid parameters."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class TopologyError(ReproError):
    """Invalid rack topology (unknown node, no route, port exhaustion...)."""


class CoherenceError(ReproError):
    """Coherence protocol violation or domain-limit overflow."""


class AddressError(ReproError):
    """Out-of-range or unmapped physical address."""


class BufferPoolError(ReproError):
    """Buffer-manager misuse (unpin of unpinned frame, pool exhaustion...)."""


class PageFaultError(BufferPoolError):
    """A page could not be brought into the pool."""


class StorageError(ReproError):
    """Storage-device failure or out-of-range page id."""


class TransactionError(ReproError):
    """Transaction aborted or used after completion."""


class DeadlockError(TransactionError):
    """Lock acquisition aborted by deadlock prevention."""


class QueryError(ReproError):
    """Malformed query plan or schema mismatch."""


class PoolingError(ReproError):
    """Memory-pool carving/lease errors (Sec 3.2 architecture)."""


class DeviceFailure(ReproError):
    """An injected hardware failure surfaced to the caller."""


def require_count(name: str, value: object, least: int,
                  error: type[ReproError] = ConfigError) -> None:
    """Refuse a count that is not an integer >= *least* — a bool, a
    float (even a whole one) or NaN included — as *error* (a
    :class:`ConfigError` at construction, unless the caller names
    another), before it can reach a slice, a partition or a cost."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or value < least:
        raise error(
            f"{name} must be an integer >= {least}, got {value!r}")


def require_nonnegative(name: str, value: float) -> None:
    """Refuse a latency or size that is negative, infinite or NaN as a
    :class:`ConfigError` at construction, before it can reach a cost."""
    if not 0 <= value < math.inf:
        raise ConfigError(f"{name} must be finite and >= 0, got {value!r}")
