"""Near-data processing on CXL controllers (Sec 4, Fig 3).

The CXL coherency controller fronts the expander's DRAM, so it can be
"co-opted to perform computations over the data it transports". Two
mechanisms from the paper:

* **Operator offload** (Fig 3a): the controller runs selection /
  projection / aggregation against the expander's *internal* DRAM
  bandwidth and ships only results over the fabric, while the host
  path must pull every byte through the CXL port first. Because CXL
  keeps both sides coherent — and the lock table can be shared — host
  and controller can partition the same scan and run in parallel
  (:meth:`NDPController.parallel_filter_time`), which classic
  non-coherent NDP could not do.
* **Active memory regions** (Fig 3b): an address range not backed by
  DRAM; reads trigger a streaming computation whose results flow to
  the reader without ever being materialized
  (:class:`ActiveMemoryRegion`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError
from ..sim.context import SimContext
from ..sim.interconnect import AccessPath
from ..units import GBPS, PAGE_SIZE, transfer_time_ns


@dataclass(frozen=True)
class OffloadResult:
    """Timing and traffic outcome of one offloaded (or host) operator."""

    time_ns: float
    fabric_bytes: int
    compute_bytes: int

    @property
    def effective_scan_rate(self) -> float:
        """Bytes scanned per ns."""
        if self.time_ns <= 0:
            return 0.0
        return self.compute_bytes / self.time_ns


class NDPController:
    """A compute-capable CXL controller in front of an expander.

    ``scan_rate`` is the controller's filtering throughput against the
    device's internal DRAM (an FPGA/ASIC datapath — it sees the raw
    DIMM bandwidth, not the CXL port), so it is calibrated *above* the
    CXL port bandwidth that gates the host path. ``host_scan_rate`` is
    a multicore host's filter throughput — high enough that the host
    is usually transfer-bound, not compute-bound. ``op_latency_ns`` is
    the fixed offload invocation cost (doorbell + completion).
    """

    def __init__(self, path: AccessPath,
                 scan_rate: float = 100.0 * GBPS,
                 op_latency_ns: float = 1_000.0,
                 host_scan_rate: float = 80.0 * GBPS,
                 ctx: SimContext | None = None) -> None:
        if scan_rate <= 0 or host_scan_rate <= 0:
            raise ConfigError("scan rates must be positive")
        self.path = path
        self.scan_rate = scan_rate
        self.op_latency_ns = op_latency_ns
        self.host_scan_rate = host_scan_rate
        #: Internal bandwidth: the device's raw DRAM channels.
        self.internal_bandwidth = path.device.spec.peak_bandwidth
        self.host_queries = 0
        self.offload_queries = 0
        self.fabric_bytes_shipped = 0
        self.bytes_scanned = 0
        self.ctx = ctx
        if ctx is not None:
            ctx.register("ndp", self)

    # -- host-side baseline -----------------------------------------------------

    def host_filter_time(self, num_pages: int, selectivity: float,
                         page_size: int = PAGE_SIZE) -> OffloadResult:
        """Scan on the host: pull every page over the fabric, filter
        at the host's scan rate (transfer and compute pipelined)."""
        self._check(num_pages, selectivity)
        total = num_pages * page_size
        transfer = transfer_time_ns(total, self.path.read_bandwidth)
        compute = transfer_time_ns(total, self.host_scan_rate)
        time_ns = self.path.read_latency_ns() + max(transfer, compute)
        self.host_queries += 1
        self.fabric_bytes_shipped += total
        self.bytes_scanned += total
        return OffloadResult(
            time_ns=time_ns, fabric_bytes=total, compute_bytes=total
        )

    # -- offloaded operators -------------------------------------------------------

    def offload_filter_time(self, num_pages: int, selectivity: float,
                            page_size: int = PAGE_SIZE) -> OffloadResult:
        """Filter on the controller: scan at min(internal bandwidth,
        controller rate), ship only matches over the fabric."""
        self._check(num_pages, selectivity)
        total = num_pages * page_size
        result_bytes = int(total * selectivity)
        scan = transfer_time_ns(
            total, min(self.internal_bandwidth, self.scan_rate)
        )
        shipping = transfer_time_ns(
            result_bytes, self.path.read_bandwidth
        ) if result_bytes else 0.0
        time_ns = self.op_latency_ns + max(scan, shipping) \
            + self.path.read_latency_ns()
        self.offload_queries += 1
        self.fabric_bytes_shipped += result_bytes
        self.bytes_scanned += total
        return OffloadResult(
            time_ns=time_ns, fabric_bytes=result_bytes, compute_bytes=total
        )

    def offload_aggregate_time(self, num_pages: int,
                               page_size: int = PAGE_SIZE) -> OffloadResult:
        """Aggregate on the controller: full scan, one line back."""
        result = self.offload_filter_time(
            num_pages, selectivity=0.0, page_size=page_size
        )
        return OffloadResult(
            time_ns=result.time_ns + self.path.read_time(64),
            fabric_bytes=64,
            compute_bytes=result.compute_bytes,
        )

    def parallel_filter_time(self, num_pages: int, selectivity: float,
                             host_fraction: float = 0.5,
                             page_size: int = PAGE_SIZE) -> OffloadResult:
        """Host and controller filter disjoint partitions in parallel.

        Possible only because coherence lets both sides share the data
        and the lock table (Sec 4); makespan is the slower side.
        """
        if not 0.0 <= host_fraction <= 1.0:
            raise ConfigError("host_fraction must be in [0,1]")
        host_pages = int(num_pages * host_fraction)
        device_pages = num_pages - host_pages
        host = self.host_filter_time(max(host_pages, 1), selectivity,
                                     page_size) \
            if host_pages else OffloadResult(0.0, 0, 0)
        device = self.offload_filter_time(max(device_pages, 1), selectivity,
                                          page_size) \
            if device_pages else OffloadResult(0.0, 0, 0)
        return OffloadResult(
            time_ns=max(host.time_ns, device.time_ns),
            fabric_bytes=host.fabric_bytes + device.fabric_bytes,
            compute_bytes=host.compute_bytes + device.compute_bytes,
        )

    def best_host_fraction(self, num_pages: int, selectivity: float,
                           page_size: int = PAGE_SIZE,
                           steps: int = 20) -> float:
        """Grid-search the work split minimizing the parallel makespan."""
        best_f, best_t = 0.0, float("inf")
        for i in range(steps + 1):
            fraction = i / steps
            t = self.parallel_filter_time(
                num_pages, selectivity, fraction, page_size
            ).time_ns
            if t < best_t:
                best_f, best_t = fraction, t
        return best_f

    def snapshot(self) -> dict:
        """Controller accounting (metrics snapshot protocol)."""
        return {
            "host_queries": self.host_queries,
            "offload_queries": self.offload_queries,
            "fabric_bytes_shipped": self.fabric_bytes_shipped,
            "bytes_scanned": self.bytes_scanned,
            "scan_rate_bytes_per_ns": self.scan_rate,
        }

    @staticmethod
    def _check(num_pages: int, selectivity: float) -> None:
        if num_pages <= 0:
            raise ConfigError("num_pages must be positive")
        if not 0.0 <= selectivity <= 1.0:
            raise ConfigError("selectivity must be in [0,1]")


@dataclass(frozen=True)
class NDPOpSpec:
    """One offloadable operator (Sec 4's candidate list).

    ``output_ratio`` is output bytes per input byte — the quantity
    that decides where the operator belongs: an operator that shrinks
    data (compression, selection, LIKE) saves fabric traffic when it
    runs near the data, while one that expands data (decompression)
    *increases* fabric traffic when offloaded.
    """

    name: str
    controller_rate: float  # bytes/ns through the controller datapath
    host_rate: float        # bytes/ns on host cores
    output_ratio: float

    def __post_init__(self) -> None:
        if self.controller_rate <= 0 or self.host_rate <= 0:
            raise ConfigError(f"{self.name}: rates must be positive")
        if self.output_ratio <= 0:
            raise ConfigError(f"{self.name}: output ratio must be > 0")


#: The operator candidates Sec 4 enumerates, with representative rates
#: (controller = dedicated datapath; host = multicore software).
NDP_OPERATORS: dict[str, NDPOpSpec] = {
    "selection": NDPOpSpec("selection", 100.0 * GBPS, 80.0 * GBPS, 0.05),
    "projection": NDPOpSpec("projection", 100.0 * GBPS, 80.0 * GBPS, 0.25),
    "like_filter": NDPOpSpec("like_filter", 60.0 * GBPS, 8.0 * GBPS, 0.02),
    "compression": NDPOpSpec("compression", 40.0 * GBPS, 3.0 * GBPS, 0.35),
    "decompression": NDPOpSpec("decompression", 40.0 * GBPS,
                               24.0 * GBPS, 3.0),
    "encryption": NDPOpSpec("encryption", 50.0 * GBPS, 10.0 * GBPS, 1.0),
    "decryption": NDPOpSpec("decryption", 50.0 * GBPS, 10.0 * GBPS, 1.0),
}


@dataclass(frozen=True)
class OpPlacement:
    """Outcome of deciding where one operator runs."""

    op: str
    offload: bool
    host_time_ns: float
    ndp_time_ns: float
    host_fabric_bytes: int
    ndp_fabric_bytes: int

    @property
    def speedup(self) -> float:
        """Host time over offloaded time (>1 favors offload)."""
        if self.ndp_time_ns <= 0:
            return 1.0
        return self.host_time_ns / self.ndp_time_ns


class NDPOperatorLibrary:
    """Cost model for the Sec 4 operator candidates on one controller.

    The source data lives in the expander; the consumer is the host.
    Host execution pulls the input over the fabric and computes
    locally; offloaded execution computes on the controller against
    internal DRAM and ships only the output.
    """

    def __init__(self, path: AccessPath,
                 op_latency_ns: float = 1_000.0,
                 operators: dict[str, NDPOpSpec] | None = None) -> None:
        self.path = path
        self.op_latency_ns = op_latency_ns
        self.operators = dict(operators or NDP_OPERATORS)

    def _spec(self, op: str) -> NDPOpSpec:
        try:
            return self.operators[op]
        except KeyError:
            raise ConfigError(
                f"unknown NDP operator {op!r};"
                f" have {sorted(self.operators)}"
            ) from None

    def host_time_ns(self, op: str, input_bytes: int) -> float:
        """Pull input over the fabric, compute on the host (pipelined)."""
        spec = self._spec(op)
        transfer = transfer_time_ns(input_bytes, self.path.read_bandwidth)
        compute = transfer_time_ns(input_bytes, spec.host_rate)
        return self.path.read_latency_ns() + max(transfer, compute)

    def offload_time_ns(self, op: str, input_bytes: int) -> float:
        """Compute on the controller, ship the output (pipelined)."""
        spec = self._spec(op)
        compute = transfer_time_ns(
            input_bytes,
            min(spec.controller_rate,
                self.path.device.spec.peak_bandwidth),
        )
        output = int(input_bytes * spec.output_ratio)
        shipping = transfer_time_ns(output, self.path.read_bandwidth) \
            if output else 0.0
        return (self.op_latency_ns + self.path.read_latency_ns()
                + max(compute, shipping))

    def place(self, op: str, input_bytes: int) -> OpPlacement:
        """Decide where the operator should run."""
        spec = self._spec(op)
        host = self.host_time_ns(op, input_bytes)
        ndp = self.offload_time_ns(op, input_bytes)
        return OpPlacement(
            op=op,
            offload=ndp < host,
            host_time_ns=host,
            ndp_time_ns=ndp,
            host_fabric_bytes=input_bytes,
            ndp_fabric_bytes=int(input_bytes * spec.output_ratio),
        )


class ActiveMemoryRegion:
    """A computed address range: reads trigger a streaming computation.

    ``compute_rate`` is how fast the controller produces view bytes
    from ``expansion`` source bytes each (e.g. a projection producing
    1 view byte per 4 source bytes has expansion 4). Streaming reads
    overlap production with fabric shipping; the materialized baseline
    produces the whole view into expander DRAM first, then ships it.
    """

    def __init__(self, path: AccessPath, view_bytes: int,
                 compute_rate: float = 20.0 * GBPS,
                 expansion: float = 1.0,
                 setup_ns: float = 2_000.0) -> None:
        if view_bytes <= 0:
            raise ConfigError("view_bytes must be positive")
        if compute_rate <= 0 or expansion <= 0:
            raise ConfigError("compute_rate and expansion must be positive")
        self.path = path
        self.view_bytes = view_bytes
        self.compute_rate = compute_rate
        self.expansion = expansion
        self.setup_ns = setup_ns

    def _production_time(self, nbytes: int) -> float:
        source = nbytes * self.expansion
        scan = transfer_time_ns(
            source, min(self.path.device.spec.peak_bandwidth,
                        self.compute_rate * self.expansion)
        )
        return scan

    def streaming_read_time(self, nbytes: int | None = None) -> float:
        """Read the view through the active region: production and
        shipping pipeline; nothing is materialized."""
        nbytes = self.view_bytes if nbytes is None else nbytes
        if not 0 < nbytes <= self.view_bytes:
            raise ConfigError(f"invalid read size {nbytes}")
        ship = transfer_time_ns(nbytes, self.path.read_bandwidth)
        return (self.setup_ns + self.path.read_latency_ns()
                + max(self._production_time(nbytes), ship))

    def materialized_read_time(self, nbytes: int | None = None) -> float:
        """Baseline: materialize the whole view in expander DRAM,
        then read the requested bytes over the fabric."""
        nbytes = self.view_bytes if nbytes is None else nbytes
        if not 0 < nbytes <= self.view_bytes:
            raise ConfigError(f"invalid read size {nbytes}")
        produce = self._production_time(self.view_bytes)
        write_back = transfer_time_ns(
            self.view_bytes, self.path.device.spec.effective_store_bandwidth
        )
        ship = transfer_time_ns(nbytes, self.path.read_bandwidth)
        return (self.setup_ns + produce + write_back
                + self.path.read_latency_ns() + ship)
