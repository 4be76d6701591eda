"""Memory pooling and database elasticity (Sec 3.2, Fig 2b).

Three claims of the paper become executable here:

1. **Stranded memory**: per-server DRAM must be provisioned for peak
   demand, so capacity strands; a rack-level pool is provisioned for
   the *sum* of demands (plus headroom) — :class:`StrandingModel`
   quantifies the difference.
2. **Warm spawn**: if the buffer pool lives in pooled CXL memory, a
   new engine attaches to it and is "immediately ready to run queries,
   as there is no need to warm up the database" —
   :class:`ElasticCluster` spawns warm engines whose CXL tier is
   pre-populated, versus cold engines that fault everything in.
3. **Cheap migration**: moving an engine whose state is in the pool is
   a remap, not a copy — :meth:`ElasticCluster.migration_time_ns`
   compares against copying the buffer pool over RDMA.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import config
from ..errors import PoolingError, StorageError
from ..sim.context import SimContext
from ..sim.interconnect import AccessPath, Link
from ..sim.memory import MemoryDevice
from ..sim.rdma import RDMAFabric
from ..storage.disk import StorageDevice
from ..storage.file import PageFile
from ..units import PAGE_SIZE, us
from .buffer import Tier, TieredBufferPool
from .engine import ScaleUpEngine
from .placement import DbCostPolicy


# ---------------------------------------------------------------------------
# Claim 1: stranded memory.
# ---------------------------------------------------------------------------

@dataclass
class StrandingModel:
    """Compares per-server provisioning against rack-level pooling.

    ``demands_bytes`` is the instantaneous memory demand of each
    server's workload. Per-server provisioning installs
    ``per_server_dram`` everywhere; pooling installs a small local
    ``base_dram`` per server plus one pool sized to aggregate demand
    with ``headroom`` slack (Pond's provisioning argument).
    """

    demands_bytes: list[int]
    per_server_dram: int
    base_dram: int
    headroom: float = 0.10

    def __post_init__(self) -> None:
        if not self.demands_bytes:
            raise PoolingError("need at least one server demand")
        if self.per_server_dram <= 0 or self.base_dram < 0:
            raise PoolingError("invalid DRAM sizes")

    @property
    def num_servers(self) -> int:
        """Number of servers in the rack."""
        return len(self.demands_bytes)

    # per-server provisioning --------------------------------------------------

    @property
    def provisioned_bytes(self) -> int:
        """Total DRAM installed under per-server provisioning."""
        return self.per_server_dram * self.num_servers

    @property
    def stranded_bytes(self) -> int:
        """Installed-but-unused DRAM under per-server provisioning
        (unmet demand does not offset stranding elsewhere)."""
        return sum(
            max(0, self.per_server_dram - demand)
            for demand in self.demands_bytes
        )

    @property
    def unmet_bytes(self) -> int:
        """Demand that exceeds its server's DRAM (spills to disk)."""
        return sum(
            max(0, demand - self.per_server_dram)
            for demand in self.demands_bytes
        )

    @property
    def stranded_fraction(self) -> float:
        """Share of installed DRAM that is stranded."""
        return self.stranded_bytes / self.provisioned_bytes

    # pooled provisioning ----------------------------------------------------------

    @property
    def pooled_pool_bytes(self) -> int:
        """Pool size: aggregate overflow demand plus headroom."""
        overflow = sum(
            max(0, demand - self.base_dram)
            for demand in self.demands_bytes
        )
        return int(overflow * (1.0 + self.headroom))

    @property
    def pooled_total_bytes(self) -> int:
        """Total memory installed under pooling."""
        return self.base_dram * self.num_servers + self.pooled_pool_bytes

    @property
    def savings_fraction(self) -> float:
        """Memory saved by pooling vs per-server provisioning."""
        if self.provisioned_bytes == 0:
            return 0.0
        return 1.0 - self.pooled_total_bytes / self.provisioned_bytes


@dataclass
class DemandSeries:
    """Per-server memory-demand time series for the pooling curve.

    Pond's provisioning argument in its sweep form: per-server DRAM
    must cover each server's *peak*, while a pool serving fraction
    ``f`` of every server's memory only needs to cover ``f`` times the
    peak of the *aggregate* — and the aggregate peaks lower than the
    sum of individual peaks whenever demands are not perfectly
    correlated.
    """

    series: list[list[int]]  # series[server][t] = demand in bytes

    def __post_init__(self) -> None:
        if not self.series or not self.series[0]:
            raise PoolingError("need at least one server and one step")
        length = len(self.series[0])
        if any(len(s) != length for s in self.series):
            raise PoolingError("all series must have equal length")

    @property
    def sum_of_peaks(self) -> int:
        """Per-server provisioning: every server sized for its peak."""
        return sum(max(s) for s in self.series)

    @property
    def peak_of_sum(self) -> int:
        """Pool-friendly aggregate: the rack's simultaneous peak."""
        steps = len(self.series[0])
        return max(
            sum(s[t] for s in self.series) for t in range(steps)
        )

    def savings_at(self, pool_fraction: float) -> float:
        """DRAM saved when fraction *f* of each server's memory may
        live in the pool: ``f x (1 - peak_of_sum / sum_of_peaks)``."""
        if not 0.0 <= pool_fraction <= 1.0:
            raise PoolingError("pool fraction must be in [0,1]")
        if self.sum_of_peaks == 0:
            return 0.0
        ratio = self.peak_of_sum / self.sum_of_peaks
        return pool_fraction * (1.0 - ratio)

    @classmethod
    def diurnal(cls, servers: int = 16, steps: int = 96,
                base_bytes: int = 16 * 1024 ** 3,
                swing_bytes: int = 32 * 1024 ** 3,
                seed: int = 5) -> "DemandSeries":
        """Phase-shifted diurnal demands (what hyperscalers see:
        tenants peak at different hours)."""
        import math
        import random
        rng = random.Random(seed)
        series = []
        for server in range(servers):
            phase = rng.uniform(0, 2 * math.pi)
            noise = rng.uniform(0.8, 1.2)
            series.append([
                int(base_bytes + swing_bytes * noise
                    * (0.5 + 0.5 * math.sin(
                        2 * math.pi * t / steps + phase)))
                for t in range(steps)
            ])
        return cls(series=series)


# ---------------------------------------------------------------------------
# Page-granular pooling for tenant churn.
# ---------------------------------------------------------------------------

class PagePool:
    """An O(1) page-lease ledger over pooled CXL capacity.

    :class:`ElasticCluster` carves byte ranges through the pool
    device's first-fit allocator — right for a handful of engines,
    quadratic for a million churning tenants. A serving run only needs
    *accounting*: who holds how many pages, how full the pool is, and
    that double releases fail loudly. ``PagePool`` keeps exactly that,
    with constant-time lease/release and an elastic :meth:`resize` so
    an autoscaler can add or retire whole expanders mid-run.
    """

    def __init__(self, capacity_pages: int, name: str = "tenant-pool",
                 page_size: int = PAGE_SIZE,
                 ctx: SimContext | None = None) -> None:
        if capacity_pages <= 0:
            raise PoolingError("pool capacity must be positive")
        self.capacity_pages = capacity_pages
        self.page_size = page_size
        self.name = name
        self._leases: dict[object, int] = {}
        self.leased_pages = 0
        self.peak_leased_pages = 0
        self.total_leases = 0
        self.total_releases = 0
        self.ctx = ctx
        if ctx is not None:
            ctx.register(f"pool.{name}", self)

    @property
    def free_pages(self) -> int:
        """Unleased pool pages."""
        return self.capacity_pages - self.leased_pages

    @property
    def occupancy(self) -> float:
        """Leased fraction of the pool, in [0, 1]."""
        return self.leased_pages / self.capacity_pages

    def holds(self, owner: object) -> bool:
        """Whether *owner* currently holds a lease."""
        return owner in self._leases

    def lease(self, owner: object, pages: int) -> bool:
        """Lease *pages* to *owner*; False when the pool is too full.

        An owner holds at most one lease at a time — leasing twice is
        an accounting bug, not a capacity miss, and raises.
        """
        if pages <= 0:
            raise PoolingError("lease size must be positive")
        if owner in self._leases:
            raise PoolingError(f"{owner!r} already holds a lease")
        if pages > self.free_pages:
            return False
        self._leases[owner] = pages
        self.leased_pages += pages
        self.peak_leased_pages = max(self.peak_leased_pages,
                                     self.leased_pages)
        self.total_leases += 1
        return True

    def release(self, owner: object) -> int:
        """Return *owner*'s pages to the pool; raises on double release."""
        pages = self._leases.pop(owner, None)
        if pages is None:
            raise PoolingError(f"{owner!r} holds no lease")
        self.leased_pages -= pages
        self.total_releases += 1
        return pages

    def resize(self, capacity_pages: int) -> None:
        """Grow or shrink the pool (expander attach/detach); cannot
        shrink below what is currently leased."""
        if capacity_pages < self.leased_pages:
            raise PoolingError(
                f"cannot shrink pool to {capacity_pages} pages below"
                f" {self.leased_pages} leased"
            )
        self.capacity_pages = capacity_pages

    def snapshot(self) -> dict:
        """Pool accounting (metrics snapshot protocol)."""
        return {
            "capacity_pages": self.capacity_pages,
            "leased_pages": self.leased_pages,
            "peak_leased_pages": self.peak_leased_pages,
            "leases": len(self._leases),
            "total_leases": self.total_leases,
            "total_releases": self.total_releases,
            "occupancy": self.occupancy,
        }


# ---------------------------------------------------------------------------
# Claims 2 and 3: warm spawn and cheap migration.
# ---------------------------------------------------------------------------

@dataclass
class PoolSlice:
    """A carved region of the pooled device leased to one engine."""

    owner: str
    offset: int
    size_bytes: int
    resident_pages: set[int] = field(default_factory=set)


class ElasticCluster:
    """A rack whose buffer pools live in pooled CXL memory.

    The cluster owns the pooled device and the dataset's backing
    storage. Engines attach with a small local-DRAM tier for query
    processing and a CXL tier mapped onto the (already warm) pool
    slice; they detach leaving the slice — and therefore the cached
    working set — behind.
    """

    ATTACH_OVERHEAD_NS = us(200.0)   # map the region, no data copy

    def __init__(self, pool_capacity_bytes: int | None = None,
                 dataset_pages: int = 50_000,
                 page_size: int = PAGE_SIZE,
                 ctx: SimContext | None = None) -> None:
        spec = config.cxl_expander_ddr5(
            capacity_bytes=pool_capacity_bytes or 64 * 1024 ** 3
        )
        self.pool_device = MemoryDevice(spec, name="rack-pool")
        self.page_size = page_size
        self.storage = StorageDevice()
        self.backing = PageFile(self.storage, name="shared-tablespace")
        if dataset_pages < 0:
            raise StorageError(f"cannot allocate {dataset_pages} pages")
        self.backing.ensure_many(range(dataset_pages))
        self._slices: dict[str, PoolSlice] = {}
        self.spawns = 0
        self.warm_spawns = 0
        self.detaches = 0
        # Cluster-level accounting only; engines each get their own
        # SimContext (and clock) when spawned.
        self.ctx = ctx
        if ctx is not None:
            ctx.register("elastic", self)

    # -- slices -------------------------------------------------------------

    def carve(self, owner: str, size_bytes: int) -> PoolSlice:
        """Lease a slice of the pool to an engine."""
        if owner in self._slices:
            raise PoolingError(f"{owner!r} already holds a slice")
        offset = self.pool_device.allocate(size_bytes)
        slice_ = PoolSlice(owner=owner, offset=offset,
                           size_bytes=size_bytes)
        self._slices[owner] = slice_
        return slice_

    def release(self, owner: str) -> None:
        """Return a slice (and its cached pages) to the pool."""
        slice_ = self._slices.pop(owner, None)
        if slice_ is None:
            raise PoolingError(f"{owner!r} holds no slice")
        self.pool_device.free(slice_.offset)

    def slice_of(self, owner: str) -> PoolSlice:
        """The slice leased to an engine."""
        try:
            return self._slices[owner]
        except KeyError:
            raise PoolingError(f"{owner!r} holds no slice") from None

    # -- engines -------------------------------------------------------------------

    def spawn_engine(self, name: str, local_pages: int = 1_024,
                     slice_pages: int = 16_384,
                     warm_from: PoolSlice | None = None,
                     through_switch: bool = True) -> tuple[ScaleUpEngine, float]:
        """Attach an engine; returns (engine, spawn time in ns).

        With ``warm_from``, the engine adopts an existing slice whose
        resident pages are immediately accessible — the warm-spawn
        path. Otherwise a fresh (cold) slice is carved.
        """
        self.spawns += 1
        if warm_from is not None:
            self.warm_spawns += 1
            slice_ = warm_from
            if slice_.owner in self._slices:
                del self._slices[slice_.owner]
            slice_.owner = name
            self._slices[name] = slice_
        else:
            slice_ = self.carve(name, slice_pages * self.page_size)

        # Each engine gets its own instrumentation spine (and clock);
        # the shared pool device stays cluster-owned and unregistered.
        engine_ctx = SimContext.ambient()
        links: tuple[Link, ...] = (
            Link(config.cxl_port(), name=f"{name}-cxl-port",
                 ctx=engine_ctx),
        )
        if through_switch:
            links += (
                Link(config.cxl_switch_hop(), name=f"{name}-cxl-switch",
                     ctx=engine_ctx),
            )
        dram = MemoryDevice(config.local_ddr5(), name=f"{name}-dram",
                            ctx=engine_ctx)
        tiers = [
            Tier(name="dram", path=AccessPath(device=dram),
                 capacity_pages=local_pages),
            Tier(name="pool-slice",
                 path=AccessPath(device=self.pool_device, links=links),
                 capacity_pages=slice_.size_bytes // self.page_size),
        ]
        pool = TieredBufferPool(
            tiers=tiers, backing=self.backing,
            placement=DbCostPolicy(), page_size=self.page_size,
            ctx=engine_ctx,
        )
        spawn_ns = self.ATTACH_OVERHEAD_NS
        for page_id in sorted(slice_.resident_pages):
            if not self.backing.contains(page_id):
                continue
            # Already materialized in pooled memory: adopt, no I/O.
            pool.adopt_resident(self.backing.peek(page_id), tier_index=1)
        engine = ScaleUpEngine(pool, name=name)
        pool.clock.advance(spawn_ns)
        return engine, spawn_ns

    def detach_engine(self, engine: ScaleUpEngine) -> PoolSlice:
        """Detach an engine, persisting its CXL-resident page set into
        the slice so a successor can warm-spawn from it."""
        slice_ = self.slice_of(engine.name)
        slice_.resident_pages = {
            page_id for page_id in engine.pool.resident_in(1)
        }
        self.detaches += 1
        return slice_

    # -- migration ---------------------------------------------------------------------

    def migration_time_ns(self, state_bytes: int,
                          fabric: RDMAFabric | None = None,
                          pooled: bool = True) -> float:
        """Time to move an engine to another host.

        ``pooled=True``: the state stays in the pool; migration is a
        detach + attach (two remaps). ``pooled=False``: the buffer
        pool must be copied over RDMA to the new host's DRAM.
        """
        if pooled:
            return 2 * self.ATTACH_OVERHEAD_NS
        net = fabric or self._default_fabric()
        return net.one_sided_read_time("dst", "src", state_bytes)

    def snapshot(self) -> dict:
        """Cluster accounting (metrics snapshot protocol)."""
        return {
            "slices": len(self._slices),
            "spawns": self.spawns,
            "warm_spawns": self.warm_spawns,
            "detaches": self.detaches,
            "pool_allocated_bytes": self.pool_device.allocated_bytes,
        }

    @staticmethod
    def _default_fabric() -> RDMAFabric:
        fabric = RDMAFabric()
        fabric.add_host("src")
        fabric.add_host("dst")
        return fabric
