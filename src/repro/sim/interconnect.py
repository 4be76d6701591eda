"""Links and access paths.

A :class:`Link` is one hop between components (a PCIe/CXL port, a UPI
socket link, a switch traversal, an RDMA NIC pair). An
:class:`AccessPath` is an ordered chain of links ending at a memory
device; it answers "how long does it take to move N bytes from here to
that device", which is the primitive every higher layer is built on.

Protocol efficiency matters twice (Sec 2.5): a 400 Gb NIC exposes only
~78% of its PCIe slot as network payload, while a CXL adapter exposes
the full slot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..config import LinkSpec
from ..errors import ConfigError
from ..units import CACHE_LINE
from .bandwidth import SharedChannel, TransferTable
from .memory import MemoryDevice

if TYPE_CHECKING:  # pragma: no cover
    from .context import SimContext


class Link:
    """A single interconnect hop with shared-bandwidth accounting."""

    def __init__(self, spec: LinkSpec, name: str | None = None,
                 ctx: "SimContext | None" = None) -> None:
        self.spec = spec
        self.name = name or spec.name
        self.channel = SharedChannel(self.name, spec.raw_bandwidth)
        if ctx is not None:
            ctx.register(f"link.{self.name}", self)

    def snapshot(self) -> dict:
        """Link state for a metrics snapshot."""
        return {
            "latency_ns": self.spec.latency_ns,
            "protocol_efficiency": self.spec.protocol_efficiency,
            "bytes": self.channel.bytes_transferred,
            "busy_ns": self.channel.busy_time_ns,
        }

    @property
    def latency_ns(self) -> float:
        """One-way traversal latency of the hop."""
        return self.spec.latency_ns

    @property
    def effective_bandwidth(self) -> float:
        """Payload bandwidth after protocol overhead (bytes/ns)."""
        return self.spec.effective_bandwidth

    def transfer_completion(self, size_bytes: int, now_ns: float) -> float:
        """Contended transfer through this hop; returns completion time."""
        raw = int(size_bytes / self.spec.protocol_efficiency)
        done = self.channel.request(raw, now_ns)
        return done + self.spec.latency_ns

    def __repr__(self) -> str:
        return (
            f"Link({self.name!r}, lat={self.latency_ns}ns,"
            f" bw={self.effective_bandwidth:.1f}GB/s)"
        )


#: How deep hardware prefetchers run ahead on sequential streams;
#: amortizes access latency on scans (they become bandwidth-bound).
PREFETCH_DEPTH = 8


class PathTiming:
    """Precomputed unloaded timing for one :class:`AccessPath`.

    Built once per path, read millions of times: the four latency
    constants (point/sequential x read/write), the narrowest
    bandwidths, and per-size-class transfer tables. Every value is the
    float the per-call arithmetic would have produced — same operands,
    same operations, evaluated once instead of per access — so the
    tables and the per-call arithmetic (the test-side reference,
    ``tests/oracle/reference.py``) are bit-identical by construction.
    """

    __slots__ = (
        "read_latency_ns", "write_latency_ns",
        "seq_read_latency_ns", "seq_write_latency_ns",
        "read_bandwidth", "write_bandwidth",
        "read_transfer", "write_transfer",
    )

    def __init__(self, path: "AccessPath") -> None:
        self.read_latency_ns = path.read_latency_ns()
        self.write_latency_ns = path.write_latency_ns()
        self.seq_read_latency_ns = self.read_latency_ns / PREFETCH_DEPTH
        self.seq_write_latency_ns = self.write_latency_ns / PREFETCH_DEPTH
        self.read_bandwidth = path.read_bandwidth
        self.write_bandwidth = path.write_bandwidth
        self.read_transfer = TransferTable(self.read_bandwidth)
        self.write_transfer = TransferTable(self.write_bandwidth)


@dataclass
class AccessPath:
    """A chain of links terminating at a memory device.

    The unloaded time to read *size* bytes over the path is::

        sum(hop latencies) + device access latency + size / path_bw

    where ``path_bw`` is the narrowest effective bandwidth along the
    path (links and device). Sequential variants divide the latency
    term by :data:`PREFETCH_DEPTH`: streaming accesses are
    bandwidth-bound because prefetchers hide most of the latency —
    which is why scan-heavy OLAP tolerates CXL so much better than
    pointer-chasing OLTP (Sec 3.1).
    """

    device: MemoryDevice
    links: tuple[Link, ...] = field(default_factory=tuple)
    _timing: "PathTiming | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.device is None:
            raise ConfigError("AccessPath requires a terminal device")
        self.links = tuple(self.links)

    def timing(self) -> PathTiming:
        """The path's precomputed timing table, built on first use.

        Specs and link chains are immutable after construction, so the
        table never needs invalidation; :meth:`extended` returns a new
        path with its own table.
        """
        cached = self._timing
        if cached is None:
            cached = self._timing = PathTiming(self)
        return cached

    @property
    def hop_count(self) -> int:
        """Number of interconnect hops before the device."""
        return len(self.links)

    @property
    def link_latency_ns(self) -> float:
        """Sum of one-way hop latencies."""
        return sum(link.latency_ns for link in self.links)

    @property
    def read_bandwidth(self) -> float:
        """Narrowest effective read bandwidth along the path (bytes/ns)."""
        bandwidths = [link.effective_bandwidth for link in self.links]
        bandwidths.append(self.device.spec.effective_load_bandwidth)
        return min(bandwidths)

    @property
    def write_bandwidth(self) -> float:
        """Narrowest effective write bandwidth along the path (bytes/ns)."""
        bandwidths = [link.effective_bandwidth for link in self.links]
        bandwidths.append(self.device.spec.effective_store_bandwidth)
        return min(bandwidths)

    def read_latency_ns(self) -> float:
        """Unloaded latency of a single cache-line load."""
        return self.link_latency_ns + self.device.spec.load_latency_ns

    def write_latency_ns(self) -> float:
        """Unloaded latency of a single cache-line store."""
        return self.link_latency_ns + self.device.spec.store_latency_ns

    def read_time(self, size_bytes: int = CACHE_LINE) -> float:
        """Unloaded time to read *size_bytes* end to end (ns)."""
        stats = self.device.stats
        stats.loads += 1
        stats.load_bytes += size_bytes
        timing = self._timing or self.timing()
        return timing.read_latency_ns + timing.read_transfer.time_ns(
            size_bytes
        )

    def write_time(self, size_bytes: int = CACHE_LINE) -> float:
        """Unloaded time to write *size_bytes* end to end (ns)."""
        stats = self.device.stats
        stats.stores += 1
        stats.store_bytes += size_bytes
        timing = self._timing or self.timing()
        return timing.write_latency_ns + timing.write_transfer.time_ns(
            size_bytes
        )

    def read_time_sequential(self, size_bytes: int) -> float:
        """Streaming read: latency amortized by the prefetch depth."""
        stats = self.device.stats
        stats.loads += 1
        stats.load_bytes += size_bytes
        timing = self._timing or self.timing()
        return timing.seq_read_latency_ns + timing.read_transfer.time_ns(
            size_bytes
        )

    def write_time_sequential(self, size_bytes: int) -> float:
        """Streaming write: latency amortized by write combining."""
        stats = self.device.stats
        stats.stores += 1
        stats.store_bytes += size_bytes
        timing = self._timing or self.timing()
        return timing.seq_write_latency_ns + timing.write_transfer.time_ns(
            size_bytes
        )

    def read_completion(self, size_bytes: int, now_ns: float) -> float:
        """Contended read: charges every hop channel and the device."""
        t = now_ns
        for link in self.links:
            t = link.transfer_completion(size_bytes, t)
        return self.device.load_completion(size_bytes, t)

    def write_completion(self, size_bytes: int, now_ns: float) -> float:
        """Contended write: charges every hop channel and the device."""
        t = now_ns
        for link in self.links:
            t = link.transfer_completion(size_bytes, t)
        return self.device.store_completion(size_bytes, t)

    def extended(self, link: Link) -> "AccessPath":
        """A new path with *link* prepended (one hop farther away)."""
        return AccessPath(device=self.device, links=(link, *self.links))

    def __repr__(self) -> str:
        hops = " -> ".join(link.name for link in self.links)
        arrow = f"{hops} -> " if hops else ""
        return f"AccessPath({arrow}{self.device.name})"
