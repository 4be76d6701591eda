"""Shared-bandwidth contention model.

A :class:`SharedChannel` is a work-conserving FIFO server draining
requests at a fixed rate. Concurrent requests therefore queue behind
one another, which is how contention on a memory channel, CXL port, or
NIC surfaces as extra latency. The model is analytic: callers pass the
current virtual time and receive the completion time back, so no event
scheduling is needed on the fast path.
"""

from __future__ import annotations

from ..errors import ConfigError
from ..units import CACHE_LINE, PAGE_SIZE, transfer_time_ns

#: Size classes every workload touches; their transfer times are
#: precomputed at table construction so the hot path never divides.
DEFAULT_SIZE_CLASSES = (CACHE_LINE, PAGE_SIZE)

#: Cap on memoized ad-hoc size classes, so irregular transfer sizes
#: (e.g. per-partition spill runs) cannot grow a table without bound.
_MAX_MEMOIZED_CLASSES = 64


class TransferTable:
    """Precomputed transfer times at a fixed bandwidth, by size class.

    ``time_ns(size)`` returns exactly the float that
    :func:`~repro.units.transfer_time_ns` would return for the same
    arguments — the table changes *when* the division happens (once,
    at construction), never its result, so cached and uncached paths
    stay bit-identical.
    """

    __slots__ = ("bandwidth", "_times")

    def __init__(self, bandwidth_bytes_per_ns: float,
                 size_classes: tuple[int, ...] = DEFAULT_SIZE_CLASSES
                 ) -> None:
        if bandwidth_bytes_per_ns <= 0:
            raise ConfigError(
                f"transfer table bandwidth must be positive:"
                f" {bandwidth_bytes_per_ns}"
            )
        self.bandwidth = bandwidth_bytes_per_ns
        self._times: dict[int, float] = {
            size: transfer_time_ns(size, bandwidth_bytes_per_ns)
            for size in size_classes
        }

    def time_ns(self, size_bytes: int) -> float:
        """Transfer time for *size_bytes*; precomputed when tabled."""
        cached = self._times.get(size_bytes)
        if cached is not None:
            return cached
        time = transfer_time_ns(size_bytes, self.bandwidth)
        if len(self._times) < _MAX_MEMOIZED_CLASSES:
            self._times[size_bytes] = time
        return time


class SharedChannel:
    """A FIFO bandwidth server shared by any number of streams."""

    __slots__ = ("name", "bandwidth", "_free_at", "_bytes", "_busy_ns")

    def __init__(self, name: str, bandwidth_bytes_per_ns: float) -> None:
        if bandwidth_bytes_per_ns <= 0:
            raise ConfigError(f"{name}: bandwidth must be positive")
        self.name = name
        self.bandwidth = bandwidth_bytes_per_ns
        self._free_at = 0.0
        self._bytes = 0
        self._busy_ns = 0.0

    def request(self, size_bytes: int, now_ns: float) -> float:
        """Enqueue a transfer of *size_bytes* at *now_ns*.

        Returns the virtual time at which the transfer completes. The
        channel serves requests in arrival order at full bandwidth.
        """
        service = transfer_time_ns(size_bytes, self.bandwidth)
        start = max(now_ns, self._free_at)
        done = start + service
        self._free_at = done
        self._bytes += size_bytes
        self._busy_ns += service
        return done

    def queueing_delay(self, now_ns: float) -> float:
        """How long a request arriving at *now_ns* would wait (ns)."""
        return max(0.0, self._free_at - now_ns)

    @property
    def bytes_transferred(self) -> int:
        """Total payload bytes pushed through the channel."""
        return self._bytes

    @property
    def busy_time_ns(self) -> float:
        """Total time the channel spent actively transferring."""
        return self._busy_ns

    def utilization(self, elapsed_ns: float) -> float:
        """Fraction of *elapsed_ns* the channel was busy, in [0, 1]."""
        if elapsed_ns <= 0:
            return 0.0
        return min(1.0, self._busy_ns / elapsed_ns)

    def reset(self) -> None:
        """Clear accounting and release the channel immediately."""
        self._free_at = 0.0
        self._bytes = 0
        self._busy_ns = 0.0

    def snapshot(self) -> dict:
        """Accounting as a dict (metrics snapshot protocol)."""
        return {
            "bytes": self._bytes,
            "busy_ns": self._busy_ns,
            "bandwidth_bytes_per_ns": self.bandwidth,
        }

    def __repr__(self) -> str:
        return f"SharedChannel({self.name!r}, bw={self.bandwidth:.2f}B/ns)"


class WaitQueue:
    """Arrival-order wait queue over one shared physical resource.

    Where :class:`SharedChannel` answers "when does *this* transfer
    finish" (folding the queueing delay into a returned completion
    time), a WaitQueue separates the two questions the session
    scheduler asks: :meth:`delay_ns` — how long would a request
    arriving now wait before the resource frees up — and
    :meth:`occupy_run` — reserve the resource for a run of transfers
    whose timing has already been charged analytically.

    Requests are served strictly in arrival order. The concurrent
    session scheduler delivers arrivals in a deterministic order
    (simultaneous wakeups are collected and ordered by session
    *name*), so
    equal-timestamp FIFO here is exact and independent of session
    list order — the property the permutation-invariance tests pin.

    Transfer service times come from :class:`TransferTable`\\ s at the
    resource's *effective* read/write bandwidths, so an uncontended
    requester is never delayed: the analytic access latency already
    covers at least the transfer service time, which means
    ``free_at`` can never pass a single stream's own clock. That is
    the mechanism behind the N=1 byte-identity guarantee.
    """

    __slots__ = ("name", "read_table", "write_table", "_free_at",
                 "_bytes", "_busy_ns", "_grants", "_waits", "_wait_ns")

    def __init__(self, name: str, read_bandwidth: float,
                 write_bandwidth: float | None = None) -> None:
        self.name = name
        self.read_table = TransferTable(read_bandwidth)
        self.write_table = TransferTable(
            read_bandwidth if write_bandwidth is None else write_bandwidth
        )
        self._free_at = 0.0
        self._bytes = 0
        self._busy_ns = 0.0
        self._grants = 0
        self._waits = 0
        self._wait_ns = 0.0

    @property
    def free_at_ns(self) -> float:
        """Virtual time at which the resource next goes idle."""
        return self._free_at

    def delay_ns(self, now_ns: float) -> float:
        """How long a request arriving at *now_ns* would wait (ns)."""
        delay = self._free_at - now_ns
        return delay if delay > 0.0 else 0.0

    def note_wait(self, wait_ns: float) -> None:
        """Record that a request waited *wait_ns* on this resource
        (attributed by the caller to the bottleneck queue only)."""
        self._waits += 1
        self._wait_ns += wait_ns

    def occupy_run(self, last_start_ns: float, nbytes: int,
                   count: int = 1, write: bool = False) -> None:
        """Reserve the resource for *count* back-to-back transfers of
        *nbytes*, the last one starting at *last_start_ns*.

        Only the tail matters for future arrivals — the resource is
        free once the last transfer's service completes — so a whole
        same-shape run is charged with one call. Byte and busy-time
        accounting still cover every transfer in the run.
        """
        table = self.write_table if write else self.read_table
        service = table.time_ns(nbytes)
        end = last_start_ns + service
        if end > self._free_at:
            self._free_at = end
        self._bytes += count * nbytes
        self._busy_ns += count * service
        self._grants += count

    def reserve_run(self, last_starts, nbytes: int, counts,
                    write: bool = False) -> None:
        """Reserve a whole multi-segment run of same-shape transfers.

        *last_starts* and *counts* are parallel sequences (ndarray or
        list), one entry per tier segment of the run: the virtual time
        at which the segment's final transfer starts, and how many
        transfers the segment carries. Byte-identical to calling
        :meth:`occupy_run` once per segment in order.

        The cummax argument: sequential occupies evolve ``free_at`` as
        ``f_k = max(f_{k-1}, L_k + s)`` with one shared service time
        ``s``, so the final value is ``max(f_0, cummax(L + s))`` — and
        because the caller charges segments in arrival order the
        ``L_k`` are non-decreasing, the cummax collapses to the tail:
        ``max(f_0, L_last + s)``, one comparison for the entire run.
        Busy time replays the per-segment addition chain (each step is
        ``count_k * s``, a single rounding) so the float accounting
        matches the sequential loop bit for bit; byte and grant
        counters are integers and sum exactly.
        """
        k = len(counts)
        if k == 0:
            return
        table = self.write_table if write else self.read_table
        service = table.time_ns(nbytes)
        # max() rather than the tail entry keeps the collapse exact
        # even for a caller that violates arrival order.
        tail = float(last_starts[k - 1] if k == 1 else max(last_starts))
        end = tail + service
        if end > self._free_at:
            self._free_at = end
        busy = self._busy_ns
        total = 0
        for c in counts:
            busy += c * service
            total += c
        self._busy_ns = busy
        self._bytes += total * nbytes
        self._grants += total

    def snapshot(self) -> dict:
        """Accounting as a dict (metrics snapshot protocol)."""
        return {
            "bytes": self._bytes,
            "busy_ns": self._busy_ns,
            "grants": self._grants,
            "waits": self._waits,
            "wait_ns": self._wait_ns,
        }

    def __repr__(self) -> str:
        return (
            f"WaitQueue({self.name!r}, free_at={self._free_at:.0f}ns,"
            f" grants={self._grants}, waits={self._waits})"
        )
