"""Unit conventions and helpers used throughout the simulator.

The whole code base sticks to three base units:

* **time**: nanoseconds, as ``float``;
* **size**: bytes, as ``int``;
* **bandwidth**: bytes per nanosecond, as ``float``.

The bandwidth convention is chosen because ``1 GB/s == 1e9 B / 1e9 ns ==
1 B/ns``: a bandwidth expressed in GB/s is *numerically identical* to the
same bandwidth in bytes/ns, which makes configuration values (vendor
datasheets quote GB/s) directly usable without conversion bugs.
"""

from __future__ import annotations

# --- sizes (bytes) ----------------------------------------------------------

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB
TIB = 1024 * GIB

CACHE_LINE = 64
PAGE_SIZE = 4 * KIB

# --- time (ns) --------------------------------------------------------------

NS = 1.0
US = 1_000.0
MS = 1_000_000.0
SECOND = 1_000_000_000.0

# --- bandwidth (bytes/ns == GB/s) -------------------------------------------

GBPS = 1.0          # 1 GB/s expressed in bytes/ns
MBPS = 1.0 / 1000.0  # 1 MB/s expressed in bytes/ns


def gib(n: float) -> int:
    """Return *n* GiB in bytes."""
    return int(n * GIB)


def mib(n: float) -> int:
    """Return *n* MiB in bytes."""
    return int(n * MIB)


def kib(n: float) -> int:
    """Return *n* KiB in bytes."""
    return int(n * KIB)


def us(n: float) -> float:
    """Return *n* microseconds in nanoseconds."""
    return n * US


def ms(n: float) -> float:
    """Return *n* milliseconds in nanoseconds."""
    return n * MS


def seconds(n: float) -> float:
    """Return *n* seconds in nanoseconds."""
    return n * SECOND


def transfer_time_ns(size_bytes: int, bandwidth_bytes_per_ns: float) -> float:
    """Time to move *size_bytes* at the given bandwidth, in ns.

    Raises :class:`ValueError` on a non-positive bandwidth so that a
    mis-configured (zero-bandwidth) device fails loudly instead of
    producing infinite transfer times silently.
    """
    if bandwidth_bytes_per_ns <= 0:
        raise ValueError(
            f"bandwidth must be positive, got {bandwidth_bytes_per_ns}"
        )
    if size_bytes < 0:
        raise ValueError(f"size must be non-negative, got {size_bytes}")
    return size_bytes / bandwidth_bytes_per_ns


def fmt_ns(t_ns: float) -> str:
    """Human-readable duration, e.g. ``fmt_ns(2500) == '2.50 us'``."""
    if t_ns < US:
        return f"{t_ns:.0f} ns"
    if t_ns < MS:
        return f"{t_ns / US:.2f} us"
    if t_ns < SECOND:
        return f"{t_ns / MS:.2f} ms"
    return f"{t_ns / SECOND:.3f} s"
