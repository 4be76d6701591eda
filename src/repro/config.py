"""Calibrated device and link presets.

Every latency/bandwidth constant the simulator uses lives here, together
with the source it was calibrated against:

* Intel CXL characterization (Sun et al., MICRO'23) — paper ref [52]:
  CXL load latency ~= 1.35x remote-NUMA load latency; bandwidth
  efficiency ~0.70 for NUMA links vs ~0.46 for CXL links.
* Meta TPP (Maruf et al., ASPLOS'23) — paper ref [34]: expander
  effective bandwidth around 64 GB/s; latency slightly above NUMA.
* Microsoft Pond (Li et al., ASPLOS'23) — paper ref [31]: pool access
  latency in the 200-400 ns range.
* NVIDIA ConnectX-7 datasheet — paper ref [37]: 400 Gb/s NIC (50 GB/s)
  on a PCIe Gen5 x16 slot (64 GB/s) — >20% of the slot unused.
* PCI-SIG roadmap — paper refs [43, 44]: per-lane rates through Gen7.

Units follow :mod:`repro.units`: ns, bytes, bytes/ns (== GB/s).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from .errors import ConfigError
from .units import GBPS, GIB, us


class MemoryKind(enum.Enum):
    """Broad classes of byte-addressable memory devices."""

    LOCAL_DRAM = "local_dram"
    REMOTE_NUMA = "remote_numa"
    CXL_DRAM = "cxl_dram"
    CXL_HBM = "cxl_hbm"
    CXL_NVM = "cxl_nvm"


class StorageKind(enum.Enum):
    """Block storage classes used as the bottom of the hierarchy."""

    NVME_SSD = "nvme_ssd"
    HDD = "hdd"


@dataclass(frozen=True)
class MemorySpec:
    """Performance envelope of one byte-addressable memory device.

    ``load_latency_ns`` / ``store_latency_ns`` are unloaded single-access
    latencies for a cache line. ``peak_bandwidth`` is the raw device
    bandwidth; ``load_efficiency`` / ``store_efficiency`` scale it to the
    *achievable* streaming bandwidth through the access path (the Intel
    study's 70%-vs-46% observation lives here).
    """

    name: str
    kind: MemoryKind
    capacity_bytes: int
    load_latency_ns: float
    store_latency_ns: float
    peak_bandwidth: float  # bytes/ns
    load_efficiency: float = 1.0
    store_efficiency: float = 1.0

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ConfigError(f"{self.name}: capacity must be positive")
        if self.load_latency_ns <= 0 or self.store_latency_ns <= 0:
            raise ConfigError(f"{self.name}: latencies must be positive")
        if self.peak_bandwidth <= 0:
            raise ConfigError(f"{self.name}: bandwidth must be positive")
        for eff in (self.load_efficiency, self.store_efficiency):
            if not 0.0 < eff <= 1.0:
                raise ConfigError(
                    f"{self.name}: efficiency must be in (0, 1], got {eff}"
                )

    @property
    def effective_load_bandwidth(self) -> float:
        """Achievable streaming read bandwidth (bytes/ns)."""
        return self.peak_bandwidth * self.load_efficiency

    @property
    def effective_store_bandwidth(self) -> float:
        """Achievable streaming write bandwidth (bytes/ns)."""
        return self.peak_bandwidth * self.store_efficiency

    def with_capacity(self, capacity_bytes: int) -> "MemorySpec":
        """Return a copy of this spec with a different capacity."""
        return replace(self, capacity_bytes=capacity_bytes)


@dataclass(frozen=True)
class StorageSpec:
    """Performance envelope of a block storage device."""

    name: str
    kind: StorageKind
    capacity_bytes: int
    read_latency_ns: float
    write_latency_ns: float
    read_bandwidth: float   # bytes/ns
    write_bandwidth: float  # bytes/ns

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ConfigError(f"{self.name}: capacity must be positive")
        if min(self.read_latency_ns, self.write_latency_ns) <= 0:
            raise ConfigError(f"{self.name}: latencies must be positive")
        if min(self.read_bandwidth, self.write_bandwidth) <= 0:
            raise ConfigError(f"{self.name}: bandwidths must be positive")


class PCIeGeneration(enum.IntEnum):
    """PCIe generations with their effective per-lane bandwidth."""

    GEN3 = 3
    GEN4 = 4
    GEN5 = 5
    GEN6 = 6
    GEN7 = 7


#: Effective per-lane bandwidth in bytes/ns (== GB/s), after encoding
#: overhead. x16 Gen7 == 242 GB/s, matching Sec 6 of the paper.
PCIE_LANE_BANDWIDTH: dict[PCIeGeneration, float] = {
    PCIeGeneration.GEN3: 0.985 * GBPS,
    PCIeGeneration.GEN4: 1.969 * GBPS,
    PCIeGeneration.GEN5: 3.938 * GBPS,
    PCIeGeneration.GEN6: 7.563 * GBPS,
    PCIeGeneration.GEN7: 15.125 * GBPS,
}


def pcie_bandwidth(gen: PCIeGeneration, lanes: int) -> float:
    """Aggregate bandwidth of a PCIe slot (bytes/ns)."""
    if lanes not in (1, 2, 4, 8, 16):
        raise ConfigError(f"invalid PCIe lane count: {lanes}")
    return PCIE_LANE_BANDWIDTH[gen] * lanes


@dataclass(frozen=True)
class LinkSpec:
    """One hop of an access path: latency plus a shared bandwidth pipe.

    ``protocol_efficiency`` captures how much of the raw pipe the protocol
    exposes to payload (e.g. a 400 Gb NIC delivering 50 GB/s over a
    64 GB/s PCIe Gen5 x16 slot has efficiency 50/64 ~= 0.78).
    """

    name: str
    latency_ns: float
    raw_bandwidth: float  # bytes/ns
    protocol_efficiency: float = 1.0

    def __post_init__(self) -> None:
        if self.latency_ns < 0:
            raise ConfigError(f"{self.name}: latency must be non-negative")
        if self.raw_bandwidth <= 0:
            raise ConfigError(f"{self.name}: bandwidth must be positive")
        if not 0.0 < self.protocol_efficiency <= 1.0:
            raise ConfigError(
                f"{self.name}: efficiency must be in (0, 1], got"
                f" {self.protocol_efficiency}"
            )

    @property
    def effective_bandwidth(self) -> float:
        """Payload bandwidth exposed by the protocol (bytes/ns)."""
        return self.raw_bandwidth * self.protocol_efficiency


# ---------------------------------------------------------------------------
# Calibrated latency anchors (Sec 2.4 of the paper).
# ---------------------------------------------------------------------------

#: Unloaded local DRAM load latency on a modern server.
LOCAL_DRAM_LOAD_NS = 80.0
#: Remote-socket (one UPI hop) NUMA load latency.
REMOTE_NUMA_LOAD_NS = 140.0
#: Intel MICRO'23: a CXL load takes ~35% longer than a remote NUMA load.
CXL_LOAD_OVER_NUMA = 1.35
#: Direct-attached CXL expander load latency (1.35 x 140 = 189 ns,
#: inside Pond's 200-400 ns envelope once a switch hop is added).
CXL_DRAM_LOAD_NS = REMOTE_NUMA_LOAD_NS * CXL_LOAD_OVER_NUMA
#: Stores present "slightly lower but equivalent" overheads (Sec 2.4).
CXL_STORE_OVER_NUMA = 1.25

#: Intel MICRO'23 streaming-load efficiencies.
NUMA_LOAD_EFFICIENCY = 0.70
CXL_LOAD_EFFICIENCY = 0.46

#: Added latency of traversing one CXL 2.0 switch.
CXL_SWITCH_LATENCY_NS = 70.0
#: Coherence-domain diameter limit (Sec 2.6).
CXL_MAX_COHERENT_DEVICES = 4096

#: RDMA verbs one-sided read floor (Sec 2.5: "a few microseconds").
RDMA_BASE_LATENCY_NS = us(2.0)


# ---------------------------------------------------------------------------
# Memory presets.
# ---------------------------------------------------------------------------

def local_ddr5(capacity_bytes: int = 64 * GIB, channels: int = 8) -> MemorySpec:
    """Host-attached DDR5-4800: 38.4 GB/s per channel."""
    return MemorySpec(
        name=f"ddr5-local-{channels}ch",
        kind=MemoryKind.LOCAL_DRAM,
        capacity_bytes=capacity_bytes,
        load_latency_ns=LOCAL_DRAM_LOAD_NS,
        store_latency_ns=LOCAL_DRAM_LOAD_NS * 0.95,
        peak_bandwidth=38.4 * GBPS * channels,
        load_efficiency=0.85,
        store_efficiency=0.75,
    )


def remote_numa_ddr5(
    capacity_bytes: int = 64 * GIB, channels: int = 8
) -> MemorySpec:
    """The other socket's DDR5, reached over a UPI-style link."""
    return MemorySpec(
        name=f"ddr5-remote-numa-{channels}ch",
        kind=MemoryKind.REMOTE_NUMA,
        capacity_bytes=capacity_bytes,
        load_latency_ns=REMOTE_NUMA_LOAD_NS,
        store_latency_ns=REMOTE_NUMA_LOAD_NS * 0.95,
        peak_bandwidth=38.4 * GBPS * channels,
        load_efficiency=NUMA_LOAD_EFFICIENCY,
        store_efficiency=NUMA_LOAD_EFFICIENCY * 0.9,
    )


def cxl_expander_ddr5(
    capacity_bytes: int = 256 * GIB, channels: int = 4
) -> MemorySpec:
    """A direct-attached CXL 1.1/2.0 Type 3 expander backed by DDR5.

    Four DDR5 channels behind a x8 Gen5 port: raw channel bandwidth
    153.6 GB/s, but the achievable streaming rate is gated by the CXL
    link efficiency (0.46), landing near Meta's observed ~64 GB/s.
    """
    return MemorySpec(
        name=f"cxl-expander-ddr5-{channels}ch",
        kind=MemoryKind.CXL_DRAM,
        capacity_bytes=capacity_bytes,
        load_latency_ns=CXL_DRAM_LOAD_NS,
        store_latency_ns=REMOTE_NUMA_LOAD_NS * 0.95 * CXL_STORE_OVER_NUMA,
        peak_bandwidth=38.4 * GBPS * channels,
        load_efficiency=CXL_LOAD_EFFICIENCY,
        store_efficiency=CXL_LOAD_EFFICIENCY * 0.95,
    )


def cxl_expander_ddr4_recycled(capacity_bytes: int = 512 * GIB) -> MemorySpec:
    """Recycled previous-generation DDR4 behind CXL (Sec 3.1: the memory
    in the expander need not match the host generation)."""
    return MemorySpec(
        name="cxl-expander-ddr4-recycled",
        kind=MemoryKind.CXL_DRAM,
        capacity_bytes=capacity_bytes,
        load_latency_ns=CXL_DRAM_LOAD_NS * 1.10,
        store_latency_ns=CXL_DRAM_LOAD_NS * 1.05,
        peak_bandwidth=25.6 * GBPS * 4,
        load_efficiency=CXL_LOAD_EFFICIENCY,
        store_efficiency=CXL_LOAD_EFFICIENCY * 0.95,
    )


def cxl_expander_hbm(capacity_bytes: int = 32 * GIB) -> MemorySpec:
    """An HBM-backed expander (Sec 2.4: "nothing prevents an expander
    from using HBM instead of DDR memory")."""
    return MemorySpec(
        name="cxl-expander-hbm",
        kind=MemoryKind.CXL_HBM,
        capacity_bytes=capacity_bytes,
        load_latency_ns=CXL_DRAM_LOAD_NS * 0.95,
        store_latency_ns=CXL_DRAM_LOAD_NS * 0.90,
        peak_bandwidth=410.0 * GBPS,
        load_efficiency=CXL_LOAD_EFFICIENCY,
        store_efficiency=CXL_LOAD_EFFICIENCY * 0.95,
    )


def cxl_expander_nvm(capacity_bytes: int = 2048 * GIB) -> MemorySpec:
    """A non-volatile (CMM-H-style) expander mixing persistence and
    byte-addressability (Sec 3.3, ref [48])."""
    return MemorySpec(
        name="cxl-expander-nvm",
        kind=MemoryKind.CXL_NVM,
        capacity_bytes=capacity_bytes,
        load_latency_ns=350.0,
        store_latency_ns=900.0,
        peak_bandwidth=16.0 * GBPS,
        load_efficiency=CXL_LOAD_EFFICIENCY,
        store_efficiency=0.30,
    )


# ---------------------------------------------------------------------------
# Storage presets.
# ---------------------------------------------------------------------------

def nvme_ssd(capacity_bytes: int = 2048 * GIB) -> StorageSpec:
    """Datacenter NVMe: ~10 us random 4 KiB read, ~7 GB/s sequential."""
    return StorageSpec(
        name="nvme-ssd",
        kind=StorageKind.NVME_SSD,
        capacity_bytes=capacity_bytes,
        read_latency_ns=us(10.0),
        write_latency_ns=us(20.0),
        read_bandwidth=7.0 * GBPS,
        write_bandwidth=5.0 * GBPS,
    )


def hdd(capacity_bytes: int = 8192 * GIB) -> StorageSpec:
    """Nearline HDD: ~4 ms seek+rotate, ~0.25 GB/s sequential."""
    return StorageSpec(
        name="hdd",
        kind=StorageKind.HDD,
        capacity_bytes=capacity_bytes,
        read_latency_ns=4.0e6,
        write_latency_ns=4.5e6,
        read_bandwidth=0.26 * GBPS,
        write_bandwidth=0.24 * GBPS,
    )


# ---------------------------------------------------------------------------
# Link presets.
# ---------------------------------------------------------------------------

def cxl_port(
    gen: PCIeGeneration = PCIeGeneration.GEN5, lanes: int = 16
) -> LinkSpec:
    """A CXL port: full PCIe slot bandwidth (Sec 2.5: "CXL adapters
    utilize the full bandwidth" of the lanes).

    Convention: :class:`MemorySpec` latencies are *end to end* as seen
    from a directly attached host — they already include the port and
    expander-controller latency. Port links therefore contribute
    **bandwidth only** (latency 0); additional fabric latency comes
    from switch traversals (:func:`cxl_switch_hop`).
    """
    return LinkSpec(
        name=f"cxl-gen{int(gen)}x{lanes}",
        latency_ns=0.0,
        raw_bandwidth=pcie_bandwidth(gen, lanes),
        protocol_efficiency=1.0,
    )


def rdma_nic_400g(gen: PCIeGeneration = PCIeGeneration.GEN5) -> LinkSpec:
    """A 400 Gb/s RDMA NIC on a Gen5 x16 slot.

    Sec 2.5 / ref [37]: the NIC delivers 50 GB/s out of the slot's
    64 GB/s — over 20% of the PCIe bandwidth never becomes network
    bandwidth. The latency floor is the verbs round-trip (~2 us).
    """
    slot = pcie_bandwidth(gen, 16)
    return LinkSpec(
        name="rdma-nic-400g",
        latency_ns=RDMA_BASE_LATENCY_NS,
        raw_bandwidth=slot,
        protocol_efficiency=50.0 * GBPS / slot,
    )


def numa_link() -> LinkSpec:
    """Socket-to-socket UPI-style link."""
    return LinkSpec(
        name="upi",
        latency_ns=REMOTE_NUMA_LOAD_NS - LOCAL_DRAM_LOAD_NS,
        raw_bandwidth=62.4 * GBPS,
        protocol_efficiency=NUMA_LOAD_EFFICIENCY,
    )


def cxl_switch_hop() -> LinkSpec:
    """Traversal of one CXL 2.0 switch."""
    return LinkSpec(
        name="cxl-switch",
        latency_ns=CXL_SWITCH_LATENCY_NS,
        raw_bandwidth=pcie_bandwidth(PCIeGeneration.GEN5, 16),
        protocol_efficiency=1.0,
    )
