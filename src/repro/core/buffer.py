"""The CXL-tiered buffer pool (Sec 3.1 of the paper).

A :class:`TieredBufferPool` manages frames across an ordered list of
memory :class:`Tier` objects — typically local DRAM first, then one or
more CXL tiers — backed by an optional page file on block storage.
Pages live in exactly one tier at a time; a placement policy
(:mod:`repro.core.placement`) decides where pages are admitted, when
they are promoted or demoted, and where evictions drain to.

Timing: every operation charges virtual nanoseconds to the pool's
clock using the tier's :class:`~repro.sim.interconnect.AccessPath`.
``access()`` returns the *demand latency* — what a query thread waits
for — while migration/maintenance costs are accounted separately in
the stats (and also advance the clock).

Execution lanes: the scalar lane and the array lane — they produce
**bit-identical** simulated state and differ only in wall-clock cost.
The frozen reference they are both held to (per-access spec
arithmetic, no tables) lives beside the tests, not in the pool.

* :meth:`TieredBufferPool.access` — the scalar lane, one page at a
  time, using the precomputed per-path timing tables. The array lane
  routes the accesses it cannot prove exact (a fault it cannot
  batch, a placement trigger point) through it, so eviction,
  migration and rebalance decisions always see scalar-order state.
  :meth:`TieredBufferPool.access_batch` is its list-form spelling:
  ``think → access`` per id of a python sequence sharing one shape,
  the array lane's scalar fallback.
* :meth:`TieredBufferPool.access_run` /
  :meth:`TieredBufferPool.access_quantum` /
  :meth:`TieredBufferPool.access_block` — the array lane: id ndarrays
  resolved against a dense numpy residency table (``page_id →
  tier_index``) kept in sync by install/evict/migrate/drop/resize.
  Hits are partitioned from faults with one gather, per-(tier, shape)
  latencies come from the precomputed tables, and the clock/demand
  accumulators advance through left folds of their deltas and
  closed-form constant runs (:mod:`repro.sim.ladder`), bit for bit the
  scalar loop's floats. ``access_run`` charges one uniform-shape
  run and ``access_quantum`` a scheduler quantum of several; both end
  in one hit-run body (:meth:`TieredBufferPool._quantum_hits`).
  ``access_block`` charges a whole columnar
  :class:`~repro.workloads.traces.AccessBlock`: through the
  :meth:`TieredBufferPool._block_exact` window when it can, otherwise
  as one ``access_run`` per uniform-shape segment.

Session lane: between :meth:`TieredBufferPool.session_begin` and
:meth:`TieredBufferPool.session_end` every lane times accesses
against a *session clock cursor* (an unbound
:class:`~repro.sim.clock.SimClock` owned by one
:class:`~repro.core.sessions.ClientSession`) instead of the pool's
bound clock, and folds arrival-order waits on the tier's shared
resources (:class:`~repro.sim.bandwidth.WaitQueue`) into the demand
latency. A lone session never waits — its own completion is always at
or past the resource's free time — so an N=1 session run stays
byte-identical to the single-stream lanes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from bisect import bisect_left
from functools import reduce
from itertools import accumulate, chain, compress
from operator import add
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np
# np.unique lazy-imports numpy.ma on first call; hoist it so the
# ~20 ms importlib walk lands at module import instead of inside the
# first measured _latch_dirty call (it showed up in bench profiles).
import numpy.ma  # noqa: F401

from ..errors import BufferPoolError, PageFaultError
from ..sim.bandwidth import WaitQueue
from ..sim.clock import SimClock
from ..sim.context import SimContext
from ..sim.interconnect import AccessPath
from ..sim.ladder import chain_values, repeat_add
from ..storage.file import PageFile
from ..storage.page import Page, PageId
from ..units import CACHE_LINE
from .frame import ACC, DIRTY, LAST_NS, PINS, SLOT, TIER, Frame
from .replacement import (
    DENSE_KEYS,
    LRUPolicy,
    ReplacementPolicy,
    make_policy,
)
from .temperature import ExactTracker, TemperatureTracker

if TYPE_CHECKING:  # pragma: no cover
    from .placement import PlacementPolicy


@dataclass
class Tier:
    """One memory tier of the pool."""

    name: str
    path: AccessPath
    capacity_pages: int
    policy: ReplacementPolicy = field(default_factory=lambda: make_policy("lru"))

    def __post_init__(self) -> None:
        if self.capacity_pages <= 0:
            raise BufferPoolError(
                f"tier {self.name}: capacity must be positive"
            )

    @classmethod
    def from_device_path(cls, name: str, path: AccessPath,
                         page_size: int, policy_name: str = "lru",
                         capacity_pages: int | None = None) -> "Tier":
        """Build a tier sized to (a fraction of) its device capacity."""
        capacity = capacity_pages
        if capacity is None:
            capacity = path.device.capacity_bytes // page_size
        return cls(name=name, path=path, capacity_pages=capacity,
                   policy=make_policy(policy_name))


#: Dense residency-table ceiling. Page ids at or above this keep their
#: row in the pool's side dict and always resolve through the scalar
#: lane. The bound is the one :class:`LRUPolicy` keeps its stamp
#: column dense under.
_RES_MAX_PIDS = DENSE_KEYS

#: Page ids are int64 on every column the pool keeps (the
#: insertion-order index, trace blocks): one at or past this is refused.
_PID_LIMIT = 1 << 63

#: The residency table's columns, in :mod:`~repro.core.frame` index
#: order: attribute, dtype and the value an absent page's row holds.
_COLUMNS = (("_res_tier", np.int16, -1), ("_pins", np.int16, 0),
            ("_dirty", np.bool_, False), ("_last_ns", np.float64, 0.0),
            ("_acc", np.int64, 0), ("_slot", np.int32, 0))

#: Minimum remaining subsegment length folded as one delta column;
#: shorter ones take a plain scalar mini-loop, which is cheaper than
#: the column setup there (the two cross near 100 accesses).
_LADDER_MIN = 32

#: 2**53 — every integer below this is exactly representable in a
#: float64, so addition chains of whole-nanosecond quantities that stay
#: under it never round and commute freely (the integer-exact lane).
_EXACT_LIMIT = 9007199254740992.0

#: Accesses the deferred hit log holds before it settles itself (see
#: :meth:`TieredBufferPool._drain_lazy`): memory stays flat in run
#: length and each settle is one columnar pass over at most this many.
_LOG_SETTLE = 1 << 16

#: Validated id columns remembered at once (see ``_span_check``); the
#: memo is cleared when full, so it pins at most this many arrays.
_SPAN_COLS = 16

#: Shortest migration run offered to the column commit
#: (:meth:`TieredBufferPool._migrate_columns`). The per-page step
#: costs ~1.1 us a page, the commit ~62 us a run plus ~0.15 us a page:
#: they break even at about this length.
_COLUMN_MOVES = 64


def _check_id_array(ids: np.ndarray) -> None:
    """Refuse an id array the array lane cannot index the residency
    table with, before numpy does so less clearly mid-charge."""
    if ids.ndim != 1 or ids.dtype.kind not in "iu":
        raise BufferPoolError(
            "page ids must be a 1-D integer array, got"
            f" {ids.ndim}-D {ids.dtype}")
    if ids.dtype == np.uint64 and ids.size and int(ids.max()) >= _PID_LIMIT:
        raise BufferPoolError(
            f"page ids must be below 2**63, got {int(ids.max())}")


def _check_page_id(page_id) -> None:
    """Refuse a page id that is not an integer in ``[0, 2**63)``."""
    if not (isinstance(page_id, (int, np.integer))
            and 0 <= page_id < _PID_LIMIT):
        raise BufferPoolError(
            f"invalid page id {page_id!r}: not an integer in [0, 2**63)")


def _check_nbytes(nbytes) -> None:
    """Refuse a negative, NaN or infinite access size; 0 is valid."""
    if not 0 <= nbytes < math.inf:
        raise BufferPoolError(f"nbytes must be finite and >= 0: {nbytes!r}")


@dataclass(slots=True)
class TierStats:
    """Per-tier accounting (slotted: bumped on every hit)."""

    hits: int = 0
    evictions: int = 0
    promotions_in: int = 0
    demotions_in: int = 0
    resident_peak: int = 0

    def snapshot(self) -> dict:
        """Counters as a dict (metrics snapshot protocol)."""
        return {
            "hits": self.hits,
            "evictions": self.evictions,
            "promotions_in": self.promotions_in,
            "demotions_in": self.demotions_in,
            "resident_peak": self.resident_peak,
        }


@dataclass(slots=True)
class BufferPoolStats:
    """Pool-wide accounting (slotted: bumped on every access)."""

    accesses: int = 0
    misses: int = 0
    writebacks: int = 0
    migrations: int = 0
    demand_time_ns: float = 0.0
    fault_time_ns: float = 0.0
    migration_time_ns: float = 0.0
    per_tier: list[TierStats] = field(default_factory=list)

    @property
    def hits(self) -> int:
        """Accesses served from some tier."""
        return self.accesses - self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of accesses served without a storage fault."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    def tier_hit_rate(self, tier_index: int) -> float:
        """Fraction of all accesses served by one tier."""
        if self.accesses == 0:
            return 0.0
        return self.per_tier[tier_index].hits / self.accesses

    def snapshot(self) -> dict:
        """Pool-wide counters as a dict (metrics snapshot protocol).

        Per-tier stats are keyed by index here; the pool's own
        :meth:`TieredBufferPool.snapshot` re-keys them by tier name.
        """
        snap: dict = {
            "accesses": self.accesses,
            "misses": self.misses,
            "hits": self.hits,
            "hit_rate": self.hit_rate,
            "writebacks": self.writebacks,
            "migrations": self.migrations,
            "demand_time_ns": self.demand_time_ns,
            "fault_time_ns": self.fault_time_ns,
            "migration_time_ns": self.migration_time_ns,
        }
        for index, tier_stats in enumerate(self.per_tier):
            snap[f"tier.{index}"] = tier_stats.snapshot()
        return snap


#: Why a block window stopped short (``LaneStats.cuts``) or was refused
#: at its head (``LaneStats.head_cuts``).
_CUTS = ("miss_full", "scan_flag", "headroom", "non_lru",
         "pinned", "session", "backing", "placement", "evicted_reref",
         "victim_bound", "cascade")


@dataclass(slots=True)
class LaneStats:
    """Route counters of the block lane (the ``pool.lane`` metrics
    namespace): windows :meth:`TieredBufferPool._block_exact` resolved
    in array ops, the accesses and first-touch installs they carried
    (``fill_installs`` into free frames, ``evict_installs`` into a
    full tier behind a victim; ``victim_rescues`` counts the
    LRU-prefix pages a window re-touched before their turn and so
    kept), and why each one that stopped short of its block was cut;
    ``head_cuts`` why a window was refused at its head instead, and
    ``head_stretch_accesses`` the accesses of the leading stretches
    that then took the scalar chain, one stretch per refusal.
    ``segment_blocks`` counts the blocks :meth:`access_block` charged
    segment by segment instead, ``declines`` what kept each off the
    window route. ``quantum_spans`` counts the all-hit spans the hit
    kernel (:meth:`TieredBufferPool._quantum_hits`) charged — one
    deferred-log entry each — and ``quantum_list_fallbacks`` the
    ``access_quantum``/``access_run`` calls whose ids do not index the
    dense table and went to the scalar loop; ``log_settles`` /
    ``log_settled_accesses`` count the log's columnar settle passes
    and the accesses they carried, ``log_high_water`` the most it ever
    held. ``column_migrations`` / ``step_migrations`` count the pages
    :meth:`TieredBufferPool._migrate_pages` moved by one column commit
    per run and by its per-page step. Bumped once per window, block,
    span, settle or migration run; not part of
    :class:`BufferPoolStats`, whose snapshot is simulated state."""

    exact_windows: int = 0
    exact_window_accesses: int = 0
    fill_installs: int = 0
    evict_installs: int = 0
    victim_rescues: int = 0
    cuts: dict[str, int] = field(default_factory=lambda: dict.fromkeys(
        _CUTS, 0))
    head_cuts: dict[str, int] = field(default_factory=lambda: dict.fromkeys(
        _CUTS, 0))
    head_stretch_accesses: int = 0
    segment_blocks: int = 0
    declines: dict[str, int] = field(default_factory=lambda: dict.fromkeys(
        ("session", "id_range", "tracker", "note", "latency"), 0))
    quantum_spans: int = 0
    quantum_list_fallbacks: int = 0
    log_settles: int = 0
    log_settled_accesses: int = 0
    log_high_water: int = 0
    column_migrations: int = 0
    step_migrations: int = 0

    def snapshot(self) -> dict:
        """Counters as a dict (metrics snapshot protocol). Spelled
        out: every engine run snapshots, and ``asdict`` recurses
        through ~35 python calls."""
        return {
            "exact_windows": self.exact_windows,
            "exact_window_accesses": self.exact_window_accesses,
            "fill_installs": self.fill_installs,
            "evict_installs": self.evict_installs,
            "victim_rescues": self.victim_rescues,
            "cuts": dict(self.cuts),
            "head_cuts": dict(self.head_cuts),
            "head_stretch_accesses": self.head_stretch_accesses,
            "segment_blocks": self.segment_blocks,
            "declines": dict(self.declines),
            "quantum_spans": self.quantum_spans,
            "quantum_list_fallbacks": self.quantum_list_fallbacks,
            "log_settles": self.log_settles,
            "log_settled_accesses": self.log_settled_accesses,
            "log_high_water": self.log_high_water,
            "column_migrations": self.column_migrations,
            "step_migrations": self.step_migrations,
        }


class TieredBufferPool:
    """A buffer pool spanning DRAM and CXL memory tiers."""

    def __init__(
        self,
        tiers: list[Tier],
        backing: PageFile | None = None,
        placement: "PlacementPolicy | None" = None,
        tracker: TemperatureTracker | None = None,
        clock: SimClock | None = None,
        page_size: int = 4096,
        ctx: SimContext | None = None,
    ) -> None:
        if not tiers:
            raise BufferPoolError("a pool needs at least one tier")
        self.tiers = list(tiers)
        self.backing = backing
        # One clock per run: with a context the pool *adopts* the
        # shared clock instead of constructing its own; bind_clock
        # asserts no second clock sneaks in.
        if ctx is None:
            ctx = SimContext(clock=clock)
        elif clock is not None and clock is not ctx.clock:
            raise BufferPoolError(
                "pool was given both a SimContext and a different"
                " clock; a run must use exactly one clock"
            )
        self.ctx = ctx
        self.clock = ctx.bind_clock(ctx.clock, owner="buffer-pool")
        self._trace = ctx.trace
        ctx.register("pool", self)
        self.lane = LaneStats()
        lane_ns = ctx.register("pool.lane", self.lane)
        # The tiers' lazily rebuilt recency order is a routing decision
        # too; the policies own the counts, the namespace reports them.
        for name, attr in (("recency_rebuilds", "rebuilds"),
                           ("recency_stale_skips", "stale_skipped")):
            ctx.metrics.set_gauge(
                f"{lane_ns}.{name}", lambda attr=attr: sum(
                    getattr(tier.policy, attr, 0) for tier in self.tiers))
        self.page_size = page_size
        self.tracker: TemperatureTracker = tracker or ExactTracker()
        self.stats = BufferPoolStats(
            per_tier=[TierStats() for _ in self.tiers]
        )
        # The residency table, the one record of which page sits where:
        # dense per-page-id columns (_COLUMNS) grown on demand — tier
        # (-1 = absent), pin count, dirty flag, last-access time,
        # access count, and the page's slot in the insertion-order
        # index below. An absent row holds (-1, 0, False) there and
        # anything in the rest, which install overwrites. `_mv` is a
        # memoryview per column for the scalar paths (plain ints and
        # floats, no numpy scalar boxed per read). A resident page the
        # table refuses (id >= _RES_MAX_PIDS) keeps the same row as a
        # list in `_far`. No Page is stored: its home is the page file
        # (every fault materialises it there) or the anonymous set, or
        # `_adopted` for an object adopt_resident brought from neither.
        self._cap = 0
        self._res_grow(0)
        self._far: dict[PageId, list] = {}
        self._adopted: dict[PageId, Page] = {}
        self._anonymous_pages: dict[PageId, Page] = {}
        self._resident_counts = [0] * len(self.tiers)
        self._pinned = 0
        if placement is None:
            from .placement import DbCostPolicy
            placement = DbCostPolicy()
        # The batch hooks the protocols declare are required: the
        # array lanes call them unguarded.
        for owner, role, hooks in (
                (placement, "placement", ("fast_headroom", "note_accesses",
                                          "choose_admit_tiers")),
                (self.tracker, "tracker", ("record_batch",))):
            missing = [hook for hook in hooks
                       if not callable(getattr(owner, hook, None))]
            if missing:
                raise BufferPoolError(
                    f"{role} {type(owner).__name__} lacks"
                    f" {', '.join(missing)}; a {role} must implement"
                    f" every hook its protocol declares")
        self.placement = placement
        self.placement.attach(self)
        # One precomputed timing table per tier, from its path.
        for tier in self.tiers:
            if not isinstance(tier.path, AccessPath):
                raise BufferPoolError(
                    f"tier {tier.name}: path must be an AccessPath, not"
                    f" {type(tier.path).__name__}")
        self._tier_timing = [tier.path.timing() for tier in self.tiers]
        # The batch hooks, bound once for the hot paths.
        self._tracker_batch = self.tracker.record_batch
        self._placement_headroom = placement.fast_headroom
        self._placement_note = placement.note_accesses
        # Session lane (see module docstring): while a ConcurrentEngine
        # quantum runs, accesses are timed against that session's clock
        # cursor and contend on per-resource wait queues. Both fields
        # are None outside a quantum so single-stream runs pay only a
        # None-check on the hot paths.
        self._session_clock: SimClock | None = None
        self._session_queues: list[tuple[WaitQueue, ...]] | None = None
        self._wait_queues: list[tuple[WaitQueue, ...]] | None = None
        self._session_wait_ns = 0.0
        # Id columns whose whole range already passed the run guard
        # (see _span_check), keyed by id() and holding the array so the
        # key cannot be recycled — their slices skip min/max/grow.
        self._span_cols: dict[int, np.ndarray] = {}
        # Per-(nbytes, write, is_scan) hit latencies for every tier at
        # once, memoized.
        self._lat_cache: dict[tuple[int, bool, bool], list[float]] = {}
        # Insertion-order residency index: `_ord_ids[:_ord_len]` holds
        # page ids in install order (the order resident_in, flush_all
        # and drop_all walk), `_ord_tier` their tiers and `_ord_valid`
        # a tombstone mask for evicted slots; the table's slot column
        # points each resident page at its entry. `_ord_born` stamps
        # each entry with the install call that made it (`_installs`
        # counts them), which is how a frame view tells the residency
        # it was taken of from a later one of the same page.
        self._ord_ids = np.empty(1024, dtype=np.int64)
        self._ord_tier = np.empty(1024, dtype=np.int16)
        self._ord_valid = np.zeros(1024, dtype=bool)
        self._ord_born = np.empty(1024, dtype=np.int32)
        self._ord_len = 0
        self._installs = 0
        # The deferred hit log: one entry per all-hit span the hit
        # kernel charged — its id slice, tiers, post-think timestamps,
        # write and scan ranges (see _quantum_hits). The span itself only
        # needs the clock and demand floats; the rows' counts, times
        # and dirty flags, recency touches and the tracker feed are
        # settled from the log by _drain_lazy(), which runs before
        # anything that could read or mutate those structures (scalar
        # accesses, eviction/migration entry points, frame views) and
        # once `_log_held` accesses would pass _LOG_SETTLE, so no
        # reader can observe the deferral and the log's memory is
        # bounded.
        self._lazy_runs: list[tuple] = []
        self._log_held = 0
        # Per-tier page-sized device read/write times for migrations
        # (static per path; the stats bumps are replayed inline).
        self._mig_rw: dict[tuple[int, int], tuple[float, float]] = {}
        # Same memoization for the fault path: the backing-store read
        # time (constant per device) and each tier's page install
        # write / eviction read times. All are pure functions of
        # immutable specs; only the device stats bumps are replayed.
        self._back_rd: tuple[object, float, int] | None = None
        self._inst_wr: dict[int, float] = {}
        self._evt_rd: dict[int, float] = {}

    # -- the session lane -----------------------------------------------------

    def wait_queues(self) -> list[tuple[WaitQueue, ...]]:
        """Per-tier wait queues over each tier's shared path resources.

        One :class:`~repro.sim.bandwidth.WaitQueue` per distinct link
        and per terminal device, *shared* between tiers whose paths
        share the resource — two tiers behind the same CXL port
        contend with each other; separate expanders do not. Built on
        first use and persistent across session runs.
        """
        queues = self._wait_queues
        if queues is None:
            by_resource: dict[int, WaitQueue] = {}
            queues = []
            for tier in self.tiers:
                path = tier.path
                tier_queues = []
                for link in getattr(path, "links", ()) or ():
                    queue = by_resource.get(id(link))
                    if queue is None:
                        queue = WaitQueue(f"link.{link.name}",
                                          link.effective_bandwidth)
                        by_resource[id(link)] = queue
                    tier_queues.append(queue)
                device = getattr(path, "device", None)
                if device is not None:
                    queue = by_resource.get(id(device))
                    if queue is None:
                        spec = device.spec
                        queue = WaitQueue(
                            f"device.{device.name}",
                            spec.effective_load_bandwidth,
                            spec.effective_store_bandwidth,
                        )
                        by_resource[id(device)] = queue
                    tier_queues.append(queue)
                queues.append(tuple(tier_queues))
            self._wait_queues = queues
        return queues

    def session_begin(self, clock: SimClock,
                      contended: bool = True) -> None:
        """Enter the session lane: time accesses against *clock* (a
        session-local cursor) and, when *contended*, fold per-resource
        queue waits into demand latency.

        The cursor is deliberately **not** bound to the context — the
        pool's own clock remains the run's single authoritative clock
        (advanced only by the event loop), so the one-clock invariant
        of :meth:`~repro.sim.context.SimContext.bind_clock` holds.
        """
        self._session_clock = clock
        self._session_queues = self.wait_queues() if contended else None

    def session_end(self) -> None:
        """Leave the session lane; single-stream behaviour resumes."""
        self._session_clock = None
        self._session_queues = None

    @property
    def session_wait_ns(self) -> float:
        """Total contention wait folded into demand latency so far."""
        return self._session_wait_ns

    def _contend(self, tier_index: int, now_ns: float, latency: float,
                 nbytes: int, write: bool) -> float:
        """Queue one access on its tier's shared resources.

        Returns the latency with any arrival-order wait folded in as a
        single addition — zero wait returns the float *untouched*,
        which is what keeps N=1 session runs byte-identical to the
        single-stream lanes.
        """
        tier_queues = self._session_queues[tier_index]
        wait = 0.0
        bottleneck = None
        for queue in tier_queues:
            delay = queue._free_at - now_ns
            if delay > wait:
                wait = delay
                bottleneck = queue
        if wait > 0.0:
            self._session_wait_ns += wait
            bottleneck.note_wait(wait)
            latency = wait + latency
        start = now_ns + wait
        for queue in tier_queues:
            queue.occupy_run(start, nbytes, 1, write)
        return latency

    # -- introspection -------------------------------------------------------

    @property
    def resident_pages(self) -> int:
        """Number of pages currently held in any tier."""
        return sum(self._resident_counts)

    @property
    def pinned_pages(self) -> int:
        """Number of resident pages holding at least one pin."""
        return self._pinned

    def tier_residents(self, tier_index: int) -> int:
        """Number of pages resident in one tier."""
        return self._resident_counts[tier_index]

    def _get(self, page_id: PageId, col: int):
        """One field of a page's row (what an absent row holds when
        the page is not resident)."""
        if 0 <= page_id < self._cap:
            return self._mv[col][page_id]
        row = self._far.get(page_id)
        return _COLUMNS[col][2] if row is None else row[col]

    def _set(self, page_id: PageId, col: int, value) -> None:
        """Write one field of a resident page's row."""
        if 0 <= page_id < self._cap:
            self._mv[col][page_id] = value
        else:
            self._far[page_id][col] = value

    def _page_of(self, page_id: PageId) -> Page:
        """A resident page's object, read from where it lives."""
        page = self._adopted.get(page_id)
        if page is None:
            page = (self._anonymous_pages[page_id] if self.backing is None
                    else self.backing.peek(page_id))
        return page

    def frame_of(self, page_id: PageId) -> Frame | None:
        """A view of the page's row (see :class:`Frame`), if resident."""
        if self._get(page_id, TIER) < 0:
            return None
        return Frame(self, page_id,
                     int(self._ord_born[self._get(page_id, SLOT)]))

    def tier_of(self, page_id: PageId) -> int | None:
        """Index of the tier holding a page, if resident."""
        tier_index = self._get(page_id, TIER)
        return tier_index if tier_index >= 0 else None

    def resident_in(self, tier_index: int) -> Iterable[PageId]:
        """Page ids resident in one tier, in install order."""
        ids, tiers = self.resident_order()
        return ids[tiers == tier_index].tolist()

    def resident_order(self) -> tuple[np.ndarray, np.ndarray]:
        """``(ids, tiers)`` of every resident page in install order: the
        one residency snapshot a placement solve reads. Read-only views
        of the insertion-order index while it holds no tombstones — a
        migration rewrites the tier column in place, so the views show
        it until the next install or eviction — one compressed copy
        otherwise. Settles the deferred hit log first, so the tracker
        heats a solve reads next are current."""
        if self._lazy_runs:
            self._drain_lazy()
        n = self._ord_len
        ids, tiers = self._ord_ids[:n], self._ord_tier[:n]
        if n != self.resident_pages:
            valid = self._ord_valid[:n]
            return ids[valid], tiers[valid]
        ids.flags.writeable = tiers.flags.writeable = False
        return ids, tiers

    def pin_counts(self, page_ids: np.ndarray) -> np.ndarray:
        """Pin counts of an id column, read off the pins column (an
        absent page holds none)."""
        ids = np.asarray(page_ids, dtype=np.int64)
        if not self._pinned:
            return np.zeros(ids.shape[0], dtype=self._pins.dtype)
        if not ids.shape[0] or (0 <= ids.min() and ids.max() < self._cap):
            return self._pins[ids]
        return np.array([self._get(pid, PINS) for pid in ids.tolist()],
                        dtype=self._pins.dtype)

    def check_invariants(self) -> None:
        """Raise :class:`BufferPoolError` unless the residency table
        agrees with everything kept beside it: the insertion-order
        index (one valid entry per resident page, the row's slot
        pointing at it, the same tier), each tier policy's membership,
        the resident and pinned counts, pins and dirty flags on
        resident rows only, and side rows only for ids the dense
        table refuses."""
        def require(ok: bool, what: str) -> None:
            if not ok:
                raise BufferPoolError(f"residency invariant broken: {what}")

        ids, tiers = self.resident_order()
        rows = list(zip(ids.tolist(), tiers.tolist()))
        slots = np.flatnonzero(self._ord_valid[:self._ord_len]).tolist()
        dense = np.flatnonzero(self._res_tier >= 0)
        require(sorted(pid for pid, _ in rows)
                == dense.tolist() + sorted(self._far),
                "tier column and insertion-order index name different pages")
        require(all(self._get(pid, TIER) == tier
                    and self._get(pid, SLOT) == slot
                    for (pid, tier), slot in zip(rows, slots)),
                "a row's tier or slot is not its index entry's")
        require(all(pid >= _RES_MAX_PIDS for pid in self._far),
                "a side row for an id the dense table holds")
        for index, tier in enumerate(self.tiers):
            members = [pid for pid, T in rows if T == index]
            require(len(members) == self._resident_counts[index],
                    f"tier {tier.name}: resident count")
            require(len(tier.policy) == len(members)
                    and all(pid in tier.policy for pid in members),
                    f"tier {tier.name}: replacement policy membership")
        absent = self._res_tier < 0
        require(not (self._pins[absent].any() or self._dirty[absent].any()),
                "a pin or a dirty flag on an absent row")
        require(self._pinned == int(np.count_nonzero(self._pins[dense]))
                + sum(1 for row in self._far.values() if row[PINS]),
                "pinned-page count")

    def _drain_lazy(self) -> None:
        """Settle the deferred hit log in one columnar pass.

        Every entry is one all-hit span as :meth:`_quantum_hits` left
        it, so the batch is five columns over its accesses in charge
        order: ids, tiers, post-think timestamps, write and scan
        flags. The pass does what the scalar loop did access by
        access, once per page or tier: each page's ``acc`` takes its
        count and its ``last_ns`` the timestamp of its *last*
        occurrence, written pages turn dirty; each tier's policy takes
        its touch sequence (:meth:`_policy_touch`); the tracker one
        ``record_block`` (``record_batch`` per scan-flag run without
        it). The structures are disjoint
        and every reader drains first, so settling a batch at once is
        unobservable.
        """
        log = self._lazy_runs
        if not log:
            return
        entries = log[:]
        log.clear()
        k = self._log_held
        self._log_held = 0
        lane = self.lane
        lane.log_settles += 1
        lane.log_settled_accesses += k
        if k > lane.log_high_water:
            lane.log_high_water = k
        if len(entries) == 1:
            ids, tier_col = entries[0][0], entries[0][1]
        else:
            ids = np.concatenate([entry[0] for entry in entries])
            tier_col = np.concatenate([entry[1] for entry in entries])
        # Which access is its page's last, without a sort: positions
        # put into the last_ns column itself (np.put keeps the final
        # value on duplicate indices) and read back per access; the
        # column takes those accesses' timestamps below.
        order = np.arange(k, dtype=np.float64)
        np.put(self._last_ns, ids, order)
        last = self._last_ns[ids] == order
        ts = np.fromiter(chain.from_iterable([entry[2] for entry in entries]),
                         np.float64, k)
        scans = np.zeros(k, dtype=bool)
        off = 0
        for span_ids, _, _, wr_ranges, scan_ranges in entries:
            for a, b in wr_ranges:
                self._dirty[span_ids[a:b]] = True
            for a, b in scan_ranges:
                scans[off + a:off + b] = True
            off += span_ids.shape[0]
        np.add.at(self._acc, ids, 1)
        self._last_ns[ids[last]] = ts[last]
        per_tier = np.bincount(tier_col)
        for T in np.flatnonzero(per_tier).tolist():
            self._policy_touch(
                self.tiers[T].policy,
                ids if per_tier[T] == k else ids[tier_col == T])
        tracker_block = getattr(self.tracker, "record_block", None)
        if tracker_block is not None:
            tracker_block(ids, scans, 0, k)
            return
        edges = [0, *(np.flatnonzero(scans[1:] != scans[:-1]) + 1).tolist(), k]
        for s, e in zip(edges, edges[1:]):
            self._tracker_batch(ids, s, e, bool(scans[s]))

    @staticmethod
    def _policy_touch(policy, seq) -> None:
        """Touch the pages of *seq* (an id column or a list), in
        order, on a replacement policy. :class:`LRUPolicy` takes the
        column as it is — its touch is one array write; any other
        policy gets a list of ints (batch API when available, scalar
        loop otherwise)."""
        if type(policy) is LRUPolicy:
            policy.record_access_batch(seq, 0, len(seq))
            return
        if type(seq) is not list:
            seq = seq.tolist()
        batch = getattr(policy, "record_access_batch", None)
        if batch is not None:
            batch(seq, 0, len(seq))
        else:
            for pid in seq:
                policy.record_access(pid)

    def _ord_compact(self, extra: int) -> None:
        """Squeeze the tombstones out of the insertion-order index and
        size it for twice its live entries plus the *extra* about to
        be appended (array ops: an overflow costs no per-page walk)."""
        n = self._ord_len
        valid = self._ord_valid[:n]
        live = int(np.count_nonzero(valid))
        cap = max(1024, 2 * (live + extra))
        for name in ("_ord_ids", "_ord_tier", "_ord_born"):
            old = getattr(self, name)
            column = np.empty(cap, dtype=old.dtype)
            column[:live] = old[:n][valid]
            setattr(self, name, column)
        self._ord_valid = np.zeros(cap, dtype=bool)
        self._ord_valid[:live] = True
        self._ord_len = live
        ids = self._ord_ids[:live]
        if self._far:
            for slot, page_id in enumerate(ids.tolist()):
                self._set(page_id, SLOT, slot)
        else:
            self._slot[ids] = np.arange(live)

    def _ord_append(self, page_ids, tier_index, k: int) -> int:
        """Append just-installed pages to the insertion-order index —
        one id, or a column of *k* with one tier or a tier per page —
        under one install stamp; returns the first new slot (the
        caller points the rows' slot column at them)."""
        if self._ord_len + k > self._ord_ids.shape[0]:
            self._ord_compact(k)
        n = self._ord_len
        self._ord_ids[n:n + k] = page_ids
        self._ord_tier[n:n + k] = tier_index
        self._ord_valid[n:n + k] = True
        self._ord_born[n:n + k] = self._installs
        self._installs = (self._installs + 1) & 0x7FFFFFFF
        self._ord_len = n + k
        return n

    @property
    def total_capacity_pages(self) -> int:
        """Sum of tier capacities."""
        return sum(tier.capacity_pages for tier in self.tiers)

    def snapshot(self) -> dict:
        """Pool state for a metrics snapshot: the stats counters with
        per-tier entries re-keyed by tier name plus residency.

        Deliberately does *not* settle the deferred hit log: every
        value in the payload (stats counters, residency, capacities)
        is maintained eagerly, so snapshots stay cheap on the session
        hot path.
        """
        snap = self.stats.snapshot()
        for index, tier in enumerate(self.tiers):
            tier_snap = snap.pop(f"tier.{index}", None)
            if tier_snap is None:
                tier_snap = self.stats.per_tier[index].snapshot()
            tier_snap["resident"] = self.tier_residents(index)
            tier_snap["capacity_pages"] = tier.capacity_pages
            snap[f"tier.{tier.name}"] = tier_snap
        return snap

    # -- pinning --------------------------------------------------------------

    def pin(self, page_id: PageId) -> None:
        """Pin a resident page (prevents eviction and migration). The
        pool counts pinned pages so victim selection can skip the
        pinned predicate entirely in the no-pins common case."""
        if self._get(page_id, TIER) < 0:
            raise BufferPoolError(f"cannot pin non-resident page {page_id}")
        pins = self._get(page_id, PINS)
        if not pins:
            self._pinned += 1
        self._set(page_id, PINS, pins + 1)

    def unpin(self, page_id: PageId) -> None:
        """Release one pin of a resident page."""
        if self._get(page_id, TIER) < 0:
            raise BufferPoolError(f"cannot unpin non-resident page {page_id}")
        pins = self._get(page_id, PINS)
        if pins <= 0:
            raise BufferPoolError(f"unpin of unpinned frame for page {page_id}")
        self._set(page_id, PINS, pins - 1)
        if pins == 1:
            self._pinned -= 1

    # -- the access fast path ---------------------------------------------------

    def access(self, page_id: PageId, nbytes: int = CACHE_LINE,
               write: bool = False, is_scan: bool = False) -> float:
        """Touch *nbytes* of a page; returns the demand latency (ns).

        A resident page is charged its tier's access time; a miss runs
        the fault path (storage read + admission, possibly evicting).
        The placement policy observes every access and may migrate
        pages as a side effect (charged to migration time, not to the
        returned demand latency).

        In the session lane the access is timed against the session's
        clock cursor and any arrival-order wait on the tier's shared
        resources is folded into the returned latency.
        """
        _check_page_id(page_id)
        _check_nbytes(nbytes)
        if self._lazy_runs:
            self._drain_lazy()
        self.stats.accesses += 1
        self.tracker.record(page_id, is_scan=is_scan)
        clock = self._session_clock
        if clock is None:
            clock = self.clock
        tier_index = self._get(page_id, TIER)
        if tier_index < 0:
            latency = self._fault(page_id, is_scan=is_scan)
            tier_index = self._get(page_id, TIER)
            self.stats.misses += 1
            self.stats.fault_time_ns += latency
            if self._session_queues is not None:
                # The fault installs a full page into the admit tier;
                # that write is what occupies the tier's resources.
                latency = self._contend(tier_index, clock._now,
                                        latency, self.page_size, True)
            trace = self._trace
            if trace.enabled:
                # The clock advances by `latency` just below; the span
                # covers exactly that charged interval.
                now = clock.now
                trace.emit_span("pool.fault", "pool", now, now + latency,
                                {"page": page_id})
        else:
            tier = self.tiers[tier_index]
            if write:
                latency = (tier.path.write_time_sequential(nbytes)
                           if is_scan else tier.path.write_time(nbytes))
            else:
                latency = (tier.path.read_time_sequential(nbytes)
                           if is_scan else tier.path.read_time(nbytes))
            if self._session_queues is not None:
                latency = self._contend(tier_index, clock._now,
                                        latency, nbytes, write)
            self._register_hit(page_id, tier_index)
        self._touch(page_id, clock.now, write)
        clock.advance(latency)
        self.stats.demand_time_ns += latency
        self.placement.on_access(page_id, tier_index, is_scan=is_scan)
        return latency

    def _touch(self, page_id: PageId, now_ns: float, write: bool) -> None:
        """Record one access on a resident page's row."""
        if 0 <= page_id < self._cap:
            mv = self._mv
            mv[ACC][page_id] += 1
            mv[LAST_NS][page_id] = now_ns
            if write:
                mv[DIRTY][page_id] = True
        else:
            row = self._far[page_id]
            row[ACC] += 1
            row[LAST_NS] = now_ns
            if write:
                row[DIRTY] = True

    def access_batch(self, page_ids: Iterable[PageId],
                     nbytes: int = CACHE_LINE, write: bool = False,
                     is_scan: bool = False, think_ns: float = 0.0,
                     accum: float = 0.0) -> float:
        """The scalar loop over a python sequence of ids sharing one
        shape — the list-form spelling of :meth:`access`, not a lane:
        per id, *think_ns* of CPU on the clock (workload think time),
        then :meth:`access` added to the caller's running demand
        accumulator *accum*. The array lane's fallbacks use it; id
        ndarrays belong on :meth:`access_run`.
        """
        if self._lazy_runs:
            self._drain_lazy()
        # `not x >= 0` rather than `x < 0`: NaN must be refused too.
        if not think_ns >= 0:
            raise BufferPoolError("think_ns must be >= 0")
        _check_nbytes(nbytes)
        if isinstance(page_ids, np.ndarray):
            page_ids = page_ids.tolist()
        clock = self._session_clock
        if clock is None:
            clock = self.clock
        one = self.access
        advance = clock.advance
        for pid in page_ids:
            if think_ns:
                advance(think_ns)
            accum += one(pid, nbytes, write, is_scan)
        return accum

    # -- the block lane -------------------------------------------------------

    def _res_grow(self, min_size: int) -> None:
        """Grow the residency table to cover ids below *min_size*
        (power-of-two sizing; the caller keeps ids < _RES_MAX_PIDS)."""
        old = self._cap
        size = max(1024, old)
        while size < min_size:
            size *= 2
        views = []
        for name, dtype, absent in _COLUMNS:
            column = np.full(size, absent, dtype=dtype)
            if old:
                column[:old] = getattr(self, name)
            setattr(self, name, column)
            views.append(memoryview(column))
        self._mv = tuple(views)
        self._cap = size

    def _shape_latencies(self, nbytes: int, write: bool,
                         is_scan: bool) -> list[float]:
        """Per-tier hit latency for one access shape, memoized."""
        key = (nbytes, write, is_scan)
        lats = self._lat_cache.get(key)
        if lats is None:
            lats = []
            for timing in self._tier_timing:
                if write:
                    lats.append(
                        (timing.seq_write_latency_ns if is_scan
                         else timing.write_latency_ns)
                        + timing.write_transfer.time_ns(nbytes)
                    )
                else:
                    lats.append(
                        (timing.seq_read_latency_ns if is_scan
                         else timing.read_latency_ns)
                        + timing.read_transfer.time_ns(nbytes)
                    )
            self._lat_cache[key] = lats
        return lats

    def _run_span(self, ids: np.ndarray, start: int, stop: int,
                  nbytes: int, write: bool, is_scan: bool,
                  think_ns: float, accum: float) -> float:
        """Vectorised core for one uniform-shape run of page ids.

        The caller guarantees a batch-capable placement policy and
        every id inside the (already grown) dense residency table.
        Per headroom window the run is partitioned into hits and
        boundaries with one gather; the hit prefix is one
        :meth:`_quantum_hits` segment, so every written-back float is
        bit-identical to the scalar loop. A window that a miss heads
        goes to the block window — the same :meth:`_block_exact` body
        over the window's positions, the run's shape as constant
        columns — unless nothing could fold a miss there
        (:meth:`_fill_decline`: a session clock, pins, ...). Other
        boundaries route through scalar :meth:`access` (the whole
        window when most of it is misses); the residency table is
        re-gathered afterwards, so their side effects (evictions,
        migrations, rebalances) are observed precisely.
        """
        clock = self._session_clock
        if clock is None:
            clock = self.clock
        headroom_fn = self._placement_headroom
        res = self._res_tier
        # Whether a miss-headed window may go to the block window (it
        # takes an integer access size; a decline holds for the run).
        window = (isinstance(nbytes, (int, np.integer))
                  and self._window_decline() is None)
        i = start
        n = stop
        while i < n:
            headroom = headroom_fn()
            if headroom <= 0:
                # A placement trigger: one access through the scalar
                # path, so it sees fully up-to-date state.
                if think_ns:
                    clock.advance(think_ns)
                accum += self.access(int(ids[i]), nbytes=nbytes,
                                     write=write, is_scan=is_scan)
                i += 1
                continue
            # A window is one log entry: cap it at what the log holds.
            wend = min(i + headroom, i + _LOG_SETTLE, n)
            wlen = wend - i
            span = res[ids[i:wend]]
            bad = span < 0
            if bad.any():
                hits = int(bad.argmax())
                if hits == 0 and window and self._fill_decline() is None:
                    const = np.broadcast_to
                    done = self._block_exact(
                        float(think_ns), ids[i:wend],
                        const(nbytes, (wlen,)), const(write, (wlen,)),
                        const(is_scan, (wlen,)),
                        const(float(think_ns), (wlen,)), clock, accum)
                    if done is not None:
                        accum = done
                        i = wend
                        res = self._res_tier
                        continue
                    window = False
                if 2 * int(bad.sum()) > wlen:
                    # Boundary-dense window (cold pool, thrash): the
                    # per-window gather cannot win (one re-gather
                    # per boundary), so the whole window takes the
                    # scalar loop.
                    accum = self.access_batch(
                        ids[i:wend].tolist(), nbytes=nbytes, write=write,
                        is_scan=is_scan, think_ns=think_ns, accum=accum,
                    )
                    i = wend
                    continue
            else:
                hits = wlen
            if hits:
                accum = self._quantum_hits(
                    ids, ((i, i + hits, nbytes, write, is_scan, think_ns),),
                    span[:hits], i, clock, accum, [])
                i += hits
            if hits < wlen:
                # The boundary access (a fault) resolves scalar after
                # the writeback above; the next window re-gathers, so
                # its evictions/migrations are fully observed.
                if think_ns:
                    clock.advance(think_ns)
                accum += self.access(int(ids[i]), nbytes=nbytes,
                                     write=write, is_scan=is_scan)
                i += 1
                res = self._res_tier
        return accum

    def preload(self, page_ids, nbytes: int = CACHE_LINE,
                write: bool = False, is_scan: bool = False,
                think_ns: float = 0.0) -> float:
        """Array-native warm-up: charge one uniform run of *page_ids*.

        Exactly :meth:`access_run` on the columnarised ids — cold-pool
        faults resolve in the block window (:meth:`_block_exact`)
        instead of the per-page scalar chain — provided for benchmark
        builders, churn drivers, and :meth:`ScaleUpEngine.warm_with`
        callers holding plain python id lists. Pool state afterwards
        (residency, stats, device counters, clock, recency order) is
        byte-identical to the scalar access loop over the same ids.
        """
        ids = np.asarray(page_ids)
        if ids.dtype.kind in "iu" or not ids.size:
            # (An empty python list columnarises as float64.)
            ids = np.ascontiguousarray(ids, dtype=np.int64)
        return self.access_run(ids, nbytes=nbytes, write=write,
                               is_scan=is_scan, think_ns=think_ns)

    def _span_check(self, col: np.ndarray) -> bool:
        """Whether every id of the column *col* indexes the dense
        residency table, grown here to cover it (``BufferPoolError``
        for a column that is not a 1-D integer array).

        Runs arrive as consecutive slices (or segment bounds) of one
        block's id column, so a column that passes is memoised in
        ``_span_cols`` — one entry per live column, sessions alternate
        — and its later runs skip this check. Blocks are immutable by
        engine contract, so the validated range cannot go stale, and
        the residency table only ever grows (``drop_all`` refills in
        place), so the grown size cannot shrink out from under it.
        """
        cols = self._span_cols
        if cols.get(id(col)) is col:
            return True
        _check_id_array(col)
        if not col.size:
            return True
        hi = int(col.max())
        if hi >= _RES_MAX_PIDS or int(col.min()) < 0:
            return False
        if hi >= self._res_tier.shape[0]:
            self._res_grow(hi + 1)
        if len(cols) >= _SPAN_COLS:
            cols.clear()
        cols[id(col)] = col
        return True

    def access_run(self, page_ids: np.ndarray, nbytes: int = CACHE_LINE,
                   write: bool = False, is_scan: bool = False,
                   think_ns: float = 0.0, accum: float = 0.0) -> float:
        """Charge one uniform-shape run given as an id ndarray.

        The array lane's single-shape entry point (:meth:`access_block`
        uses it for the segments of a block off the window route);
        bit-identical to the scalar loop (:meth:`access_batch`) on the
        same ids, which serves ids outside the dense table.
        """
        _check_id_array(page_ids)
        n = page_ids.shape[0]
        if n == 0:
            return accum
        if not think_ns >= 0:
            raise BufferPoolError("think_ns must be >= 0")
        _check_nbytes(nbytes)
        # A slice of a 1-D column validates (once) through the column;
        # any other array — one over a buffer or a memory map included
        # — is checked as the run it is.
        base = page_ids.base
        if (isinstance(base, np.ndarray) and base.ndim == 1
                and base.dtype == page_ids.dtype
                and self._span_check(base)):
            ok = True
        else:
            hi = int(page_ids.max())
            ok = hi < _RES_MAX_PIDS and int(page_ids.min()) >= 0
            if ok and hi >= self._res_tier.shape[0]:
                self._res_grow(hi + 1)
        if ok:
            return self._run_span(page_ids, 0, n, nbytes, write,
                                  is_scan, think_ns, accum)
        self.lane.quantum_list_fallbacks += 1
        return self.access_batch(page_ids.tolist(), nbytes=nbytes,
                                 write=write, is_scan=is_scan,
                                 think_ns=think_ns, accum=accum)

    def access_quantum(self, ids: np.ndarray, segs: list,
                       accum: float = 0.0
                       ) -> tuple[float, list[float]]:
        """Charge one scheduler quantum — consecutive uniform-shape
        segments of a single block's id column — in one call.

        *ids* is the whole column (indexed by segment bounds, never
        sliced; any integer ndarray, however built — the pool keeps a
        view until the quantum's bookkeeping is settled, and blocks
        are immutable by engine contract) and *segs* holds ``(start,
        stop, nbytes, write, is_scan, think_ns)`` per segment in trace
        order, as produced by ``ShapeSegments.next_span``. Returns
        ``(accum, seg_demands)`` where ``seg_demands[i]`` is the
        accumulator after segment ``i`` — the boundaries the session
        scheduler's per-run samples are built from. Bit-identical to
        calling :meth:`access_run` on each segment's slice in order;
        the amortisation is the point: the column's id range is
        validated once for all its quanta, and an all-hit quantum
        inside one placement headroom window is one residency gather
        and one :meth:`_quantum_hits` span. A column that does not
        index the dense table (ids >= 2**22) goes to the scalar loop
        segment by segment (``pool.lane.quantum_list_fallbacks``).
        """
        seg_demands: list[float] = []
        for seg in segs:
            if not seg[5] >= 0:
                raise BufferPoolError("think_ns must be >= 0")
            _check_nbytes(seg[2])
        if not self._span_check(ids):
            self.lane.quantum_list_fallbacks += 1
            for a, b, nb, wr, sc, th in segs:
                accum = self.access_batch(
                    ids[a:b].tolist(), nbytes=nb, write=wr,
                    is_scan=sc, think_ns=th, accum=accum)
                seg_demands.append(accum)
            return accum, seg_demands
        if segs:
            clock = self._session_clock
            if clock is None:
                clock = self.clock
            q0 = segs[0][0]
            q1 = segs[-1][1]
            # (An all-empty quantum charges and logs nothing: the loop
            # below hands back its seg_demands.)
            if q0 < q1 <= q0 + min(self._placement_headroom(),
                                   _LOG_SETTLE):
                qspan = self._res_tier[ids[q0:q1]]
                if not (qspan < 0).any():
                    return self._quantum_hits(
                        ids, segs, qspan, q0, clock, accum,
                        seg_demands), seg_demands
        run_span = self._run_span
        for a, b, nb, wr, sc, th in segs:
            accum = run_span(ids, a, b, nb, wr, sc, th, accum)
            seg_demands.append(accum)
        return accum, seg_demands

    def _quantum_hits(self, ids: np.ndarray, segs, qspan: np.ndarray,
                      q0: int, clock, accum: float,
                      seg_demands: list[float]) -> float:
        """The hit-run body: charge consecutive uniform-shape segments
        that the caller proved all-hit, and log their bookkeeping.

        The caller showed, with one residency gather *qspan* (tiers of
        ``ids[q0:segs[-1][1]]``, at most ``_LOG_SETTLE`` accesses) and
        one headroom probe, that every access hits a timed tier and
        that no placement trigger can fire before the last one
        (all-hit processing never evicts, so the gathered tiers cannot
        go stale). Tier-change cuts are located once across the span;
        the first access of each uniform (shape x tier) subsegment
        runs by hand — it is the only one that can fold a contention
        wait — and the rest advance the clock and
        demand accumulators through the identical float sequence the
        scalar loop produces: that loop itself below ``_LADDER_MIN``,
        from there on one delta column (the clock, then think and
        latency interleaved, or latency alone) folded by
        ``np.add.accumulate``, which is the loop's left fold, and
        :func:`~repro.sim.ladder.repeat_add` for the demand
        accumulators, which add one constant.

        Those floats, the hit and device counters and the queue
        reservations are all the span itself observes. What the scalar
        loop also did per access — row stats, dirty flags, recency
        touches, the tracker feed — is left to :meth:`_drain_lazy` as
        one log entry ``(ids[q0:q1], qspan, ts, writes, scans)``:
        *ts* holds the post-think timestamp of every access, a folded
        run's straight from its column; *writes* and *scans* are the
        span-relative ranges of the write and scan segments. No
        ``Frame`` is touched here. The entry is in the log before the
        placement notes run (a note may call back into the pool and
        drain).
        """
        stats = self.stats
        queues = self._session_queues
        lat_cache = self._lat_cache
        per_tier = stats.per_tier
        tiers = self.tiers
        q1 = segs[-1][1]
        if self._log_held + (q1 - q0) > _LOG_SETTLE:
            self._drain_lazy()
        now = clock._now
        pool_demand = stats.demand_time_ns
        rel_cuts = np.nonzero(qspan[1:] != qspan[:-1])[0]
        cut_list = (rel_cuts + (q0 + 1)).tolist()
        cut_list.append(q1)
        ci = 0
        ts: list[float] = []
        writes: list[tuple[int, int]] = []
        scans: list[tuple[int, int]] = []
        for a, b, nbytes, write, is_scan, think_ns in segs:
            lats = lat_cache.get((nbytes, write, is_scan))
            if lats is None:
                lats = self._shape_latencies(nbytes, write, is_scan)
            if write:
                writes.append((a - q0, b - q0))
            if is_scan:
                scans.append((a - q0, b - q0))
            # Queue occupancy is deferred to one reservation per queue
            # at the segment boundary: a session's own reservations
            # can never push free_at past its own cursor (analytic
            # latency covers the service time), so later subsegment
            # heads fold exactly the same wait whether earlier ones
            # occupied eagerly or not.
            seg_tiers: list[int] = []
            seg_lasts: list[float] = []
            seg_counts: list[int] = []
            s = a
            while s < b:
                while cut_list[ci] <= s:
                    ci += 1
                e = cut_list[ci]
                if e > b:
                    e = b
                tier_index = int(qspan[s - q0])
                lat = lats[tier_index]
                if think_ns:
                    now += think_ns
                lat_i = lat
                if queues is not None:
                    wait = 0.0
                    bottleneck = None
                    for queue in queues[tier_index]:
                        delay = queue._free_at - now
                        if delay > wait:
                            wait = delay
                            bottleneck = queue
                    if wait > 0.0:
                        self._session_wait_ns += wait
                        bottleneck.note_wait(wait)
                        lat_i = wait + lat
                ts.append(now)
                now += lat_i
                pool_demand += lat_i
                accum += lat_i
                rem = e - s - 1
                if rem >= _LADDER_MIN:
                    # One delta column, folded: now, then think and
                    # latency interleaved (or latency alone); the
                    # post-think values are the run's timestamps.
                    if think_ns:
                        col = np.empty(2 * rem + 1)
                        col[1::2] = think_ns
                        col[2::2] = lat
                        col[0] = now
                        np.add.accumulate(col, out=col)
                        ts.extend(col[1::2].tolist())
                    else:
                        col = np.full(rem + 1, lat)
                        col[0] = now
                        np.add.accumulate(col, out=col)
                        ts.extend(col[:-1].tolist())
                    now = float(col[-1])
                    # The demand accumulators only ever add lat, so
                    # they fold with repeat_add whatever the clock
                    # interleaves.
                    pool_demand = repeat_add(pool_demand, lat, rem)
                    accum = repeat_add(accum, lat, rem)
                else:
                    for _ in range(rem):
                        if think_ns:
                            now += think_ns
                        ts.append(now)
                        now += lat
                        pool_demand += lat
                        accum += lat
                per_tier[tier_index].hits += e - s
                dstats = tiers[tier_index].path.device.stats
                if write:
                    dstats.stores += e - s
                    dstats.store_bytes += (e - s) * nbytes
                else:
                    dstats.loads += e - s
                    dstats.load_bytes += (e - s) * nbytes
                if queues is not None:
                    seg_tiers.append(tier_index)
                    seg_lasts.append(now - lat)
                    seg_counts.append(e - s)
                s = e
            if seg_tiers:
                # Consecutive same-tier subsegments reserve in one
                # call; tier changes cut the batch so queues shared
                # across tiers see the exact per-subsegment accounting
                # order (busy time is a float chain).
                nsg = len(seg_tiers)
                x = 0
                while x < nsg:
                    y = x + 1
                    T = seg_tiers[x]
                    while y < nsg and seg_tiers[y] == T:
                        y += 1
                    if y - x == 1:
                        for queue in queues[T]:
                            queue.occupy_run(seg_lasts[x], nbytes,
                                             seg_counts[x], write)
                    else:
                        for queue in queues[T]:
                            queue.reserve_run(seg_lasts[x:y], nbytes,
                                              seg_counts[x:y], write)
                    x = y
            seg_demands.append(accum)
        stats.accesses += q1 - q0
        stats.demand_time_ns = pool_demand
        clock._now = now
        self._lazy_runs.append((ids[q0:q1], qspan, ts, writes, scans))
        self._log_held += q1 - q0
        self.lane.quantum_spans += 1
        note = self._placement_note
        for a, b, _, _, is_scan, _ in segs:
            note(ids, a, b, is_scan)
        return accum

    def access_block(self, block, accum: float = 0.0) -> float:
        """Charge a whole columnar AccessBlock.

        Bit-identical to replaying the block's accesses through the
        scalar loop (think advance, :meth:`access`, demand into
        *accum*), by one of two routes: the :meth:`_block_exact`
        window, which resolves whole placement-headroom windows of the
        block in array ops; or one :meth:`access_run` per uniform-shape
        segment for a block the window declines — a contended session,
        ids outside the dense table, a tracker without
        ``record_block``, a placement note that reads the scan flag,
        or a block with a negative or
        non-finite latency, an infinite think time or a byte total past
        2**53 (``latency``). ``pool.lane`` counts those blocks and the
        reason.
        """
        ids_nd = block.page_id
        n = len(ids_nd)
        if n == 0:
            return accum
        sizes_nd = block.nbytes
        writes_nd = block.write
        scans_nd = block.is_scan
        thinks_nd = block.think_ns
        # A negative think would run the clock backwards and NaN
        # poisons it (min propagates NaN, and NaN >= 0 is false):
        # refuse the block before anything is charged.
        think_lo = float(thinks_nd.min())
        if not think_lo >= 0:
            raise BufferPoolError("think_ns must be >= 0")
        # Sizes likewise; only a float column can hold +inf.
        _check_nbytes(sizes_nd.min().item())
        if sizes_nd.dtype.kind == "f":
            _check_nbytes(sizes_nd.max().item())
        clock = self._session_clock
        if clock is None:
            clock = self.clock
        if self._session_queues is not None:
            decline = "session"
        else:
            hi = int(ids_nd.max())
            if hi >= _RES_MAX_PIDS or int(ids_nd.min()) < 0:
                decline = "id_range"
            else:
                decline = self._window_decline()
            if decline is None:
                if hi >= self._res_tier.shape[0]:
                    self._res_grow(hi + 1)
                result = self._block_exact(think_lo, ids_nd, sizes_nd,
                                           writes_nd, scans_nd, thinks_nd,
                                           clock, accum)
                if result is not None:
                    return result
                decline = "latency"
        self.lane.segment_blocks += 1
        self.lane.declines[decline] += 1
        a = 0
        for b in block.segment_bounds()[1:]:
            accum = self.access_run(
                ids_nd[a:b], nbytes=int(sizes_nd[a]),
                write=bool(writes_nd[a]), is_scan=bool(scans_nd[a]),
                think_ns=float(thinks_nd[a]), accum=accum,
            )
            a = b
        return accum

    def _window_decline(self) -> str | None:
        """What in the pool's tracker or placement rules out the
        :meth:`_block_exact` window (a ``declines`` reason), or None:
        it feeds the tracker one ``record_block`` and the placement
        one scan-blind note per window."""
        if getattr(self.tracker, "record_block", None) is None:
            return "tracker"
        if not getattr(self._placement_note, "scan_blind", False):
            return "note"
        return None

    def _block_exact(self, think_lo: float, ids_nd, sizes_nd, writes_nd,
                     scans_nd, thinks_nd, clock, accum):
        """Array-resolved block lane; returns None when ineligible.

        A whole placement-headroom window of hits resolves in a
        handful of array ops — one residency gather, one latency
        gather, and left folds of the clock and demand chains
        (:func:`~repro.sim.ladder.chain_values`, one
        ``np.add.accumulate`` each) that reproduce every intermediate
        clock/demand value bit-for-bit — plus a single
        write per row column (count, last time, dirty) and per-tier
        replacement recency replayed in access order.  First-touch misses stay
        inside the window (:meth:`_fill_plan`) when they land in free
        frames or behind victims that drain straight to storage: they
        install up front and their positions carry the miss latency
        as extra delta classes of the same chains.  Other faults
        resolve scalar between windows, a refused window head's whole
        stretch of them at once, and so do placement triggers.  A
        block with a negative or non-finite latency, byte counts whose
        total may pass 2**53 (the byte counters would round) or an
        infinite think time is declined before anything is charged;
        *think_lo* is the block's smallest think time, which the
        caller already showed to be a number >= 0.
        """
        if self._lazy_runs:
            # The window touches recency and the tracker itself.
            self._drain_lazy()
        n = ids_nd.shape[0]
        tiers = self.tiers
        ntiers = len(tiers)
        # Distinct access shapes and their per-tier latency rows.
        pk = sizes_nd * 4 + writes_nd * 2 + scans_nd
        if n > 1:
            chg = np.nonzero(pk[1:] != pk[:-1])[0]
            seg_starts = np.empty(chg.shape[0] + 1, dtype=np.int64)
            seg_starts[0] = 0
            seg_starts[1:] = chg + 1
        else:
            seg_starts = np.zeros(1, dtype=np.int64)
        upk, inv = np.unique(pk[seg_starts], return_inverse=True)
        lat_tab = np.array([
            self._shape_latencies(int(key >> 2), bool(key & 2),
                                  bool(key & 1))
            for key in upk.tolist()], dtype=np.float64)
        # (min propagates NaN, and NaN >= 0 is false.)
        if not (float(lat_tab.min()) >= 0.0
                and float(lat_tab.max()) < math.inf):
            return None
        if n * float(sizes_nd.max()) >= _EXACT_LIMIT:
            return None
        seg_lens = np.diff(np.append(seg_starts, n))
        rowmap = np.repeat(inv.astype(np.int64), seg_lens) * ntiers
        # Delta classes for the addition chains: think values first,
        # then the flattened (shape, tier) latency table.
        think_hi = float(thinks_nd.max())
        if think_hi == math.inf:
            return None
        if think_hi == think_lo:
            tvals = np.array([float(thinks_nd[0])])
            tinv = np.zeros(n, dtype=np.int64)
        else:
            tvals, tinv = np.unique(thinks_nd, return_inverse=True)
        nt_t = tvals.shape[0]
        vcls = np.concatenate((tvals, lat_tab.ravel()))

        stats = self.stats
        lane = self.lane
        headroom_fn = self._placement_headroom
        note = self._placement_note
        tracker_block = self.tracker.record_block
        j = 0
        while j < n:
            now = clock._now
            pool_demand = stats.demand_time_ns
            room = headroom_fn()
            if room <= 0:
                # Placement trigger: scalar route, then re-open.
                t = float(thinks_nd[j])
                if t:
                    clock.advance(t)
                accum += self.access(int(ids_nd[j]),
                                     nbytes=int(sizes_nd[j]),
                                     write=bool(writes_nd[j]),
                                     is_scan=bool(scans_nd[j]))
                j += 1
                continue
            wend = j + room
            if wend > n:
                wend = n
            sp = self._res_tier[ids_nd[j:wend]]
            bad = sp < 0
            k = sp.shape[0]
            cut = "headroom"
            fill = None
            if bad.any():
                k, cut, fill = self._fill_plan(ids_nd[j:wend],
                                               scans_nd[j:wend], sp)
            if k == 0:
                # The plan refused the window's head (pins, a session
                # clock, a full tier of an anonymous pool, a cascade,
                # ...): the leading stretch
                # of such positions takes the scalar access chain, the
                # reference, and the window is planned again after it
                # — once per stretch, not once per miss.
                stop = j + (bad.shape[0] if bad.all()
                            else int(bad.argmin()))
                lane.head_cuts[cut] += 1
                lane.head_stretch_accesses += stop - j
                advance = clock.advance
                for pid, nb, wr, sc, t in zip(
                        ids_nd[j:stop].tolist(), sizes_nd[j:stop].tolist(),
                        writes_nd[j:stop].tolist(),
                        scans_nd[j:stop].tolist(),
                        thinks_nd[j:stop].tolist()):
                    if t:
                        advance(t)
                    accum += self.access(pid, nb, wr, sc)
                j = stop
                continue
            # The hit prefix [j, j+k): replay the clock's and the two
            # demand accumulators' addition chains exactly.  The clock
            # chain interleaves think and latency adds; its even
            # positions are the post-think timestamps the frames see.
            jk = j + k
            ids_k = ids_nd[j:jk]
            wr_k = writes_nd[j:jk]
            nb_k = sizes_nd[j:jk]
            if fill is None:
                sp_k = sp[:k]
                lat_cls = nt_t + rowmap[j:jk] + sp_k
                vals = vcls
                # Every position is a hit.
                sp_h, wr_h, nb_h = sp_k, wr_k, nb_k
            else:
                # Fill window: the planned first touches install now,
                # every occurrence of a planned id then reads as a hit
                # in its admit tier, and the first-touch positions take
                # the tier's miss latency as one more delta class.
                # Misses into a full tier first drain its victims —
                # the pages this window re-touches before their turn
                # touched out of the way — and take the latency behind
                # a clean or a dirty one, two more classes per tier.
                fpos, fids, adm, pairs, evict = fill
                io, inst = self._fill_charge(pairs)
                miss_lat = np.full(3 * ntiers, np.nan)
                for T, install_time in inst.items():
                    miss_lat[T] = (io + 0.0) + install_time
                mcls = adm.copy()
                lane.fill_installs += fpos.shape[0]
                for T, dirty, over, rescued in evict:
                    if rescued:
                        self._policy_touch(tiers[T].policy, rescued)
                    miss_lat[ntiers + T], miss_lat[2 * ntiers + T] = \
                        self._evict_apply(T, dirty, io, inst[T])
                    mcls[over] += ntiers * (1 + np.asarray(dirty))
                    lane.fill_installs -= len(dirty)
                    lane.evict_installs += len(dirty)
                    lane.victim_rescues += len(rescued)
                self._fill_install(fids, adm, pairs)
                sp_k = self._res_tier[ids_k]
                lat_cls = nt_t + rowmap[j:jk] + sp_k
                lat_cls[fpos] = vcls.shape[0] + mcls
                vals = np.concatenate((vcls, miss_lat))
                hit = np.ones(k, dtype=bool)
                hit[fpos] = False
                sp_h, wr_h, nb_h = sp_k[hit], wr_k[hit], nb_k[hit]
            cls2 = np.empty(2 * k, dtype=np.int64)
            cls2[0::2] = tinv[j:jk]
            cls2[1::2] = lat_cls
            out2 = np.empty(2 * k)
            clock._now = chain_values(now, vals, cls2, out2)
            outd = np.empty(k)
            stats.demand_time_ns = chain_values(pool_demand, vals,
                                                lat_cls, outd)
            accum = chain_values(accum, vals, lat_cls, outd)
            last_ts = out2[0::2]
            stats.accesses += k
            if fill is not None:
                # The miss subsequence is its own chain on the fault
                # accumulator; the spans the scalar path emits per
                # fault come from the same arrays.
                nf = fpos.shape[0]
                stats.misses += nf
                stats.fault_time_ns = chain_values(
                    stats.fault_time_ns, vals, lat_cls[fpos], outd[:nf])
                if self._trace.enabled:
                    emit = self._trace.emit_span
                    for pid, t0, lat_f in zip(fids.tolist(),
                                              last_ts[fpos].tolist(),
                                              vals[lat_cls[fpos]].tolist()):
                        emit("pool.fault", "pool", t0, t0 + lat_f,
                             {"page": pid})
            lane.exact_windows += 1
            lane.exact_window_accesses += k
            if jk < n:
                lane.cuts[cut] += 1
            tracker_block(ids_nd, scans_nd, j, jk)
            note(ids_nd, j, jk, False)
            has_w = bool(wr_k.any())
            # Recency lists span every position of a tier (an LRU
            # insert followed by a touch leaves the insert's order);
            # hit counters and device traffic only the hits.
            cnt = np.bincount(sp_k, minlength=ntiers)
            h_cnt = cnt if fill is None else np.bincount(
                sp_h, minlength=ntiers)
            if has_w:
                rd = ~wr_h
                l_cnt = np.bincount(sp_h[rd], minlength=ntiers)
                l_byt = np.bincount(sp_h[rd], weights=nb_h[rd],
                                    minlength=ntiers)
                s_byt = np.bincount(sp_h[wr_h], weights=nb_h[wr_h],
                                    minlength=ntiers)
            else:
                l_cnt = h_cnt
                l_byt = np.bincount(sp_h, weights=nb_h,
                                    minlength=ntiers)
            for T in np.nonzero(cnt)[0].tolist():
                h_t = int(h_cnt[T])
                tier = tiers[T]
                stats.per_tier[T].hits += h_t
                device_stats = tier.path.device.stats
                lc = int(l_cnt[T])
                if lc:
                    device_stats.loads += lc
                    device_stats.load_bytes += int(l_byt[T])
                if h_t - lc:
                    device_stats.stores += h_t - lc
                    device_stats.store_bytes += int(s_byt[T])
                self._policy_touch(
                    tier.policy,
                    ids_k if cnt[T] == k else ids_k[sp_k == T])
            # Row stats in place: each page's count added, the time of
            # its last occurrence put (np.put keeps the final value on
            # duplicate indices, as the last of the scalar loop's plain
            # assignments stands), written pages turned dirty.
            np.add.at(self._acc, ids_k, 1)
            np.put(self._last_ns, ids_k, last_ts)
            if has_w:
                self._dirty[ids_k[wr_k]] = True
            j = jk
        return accum

    def _fill_decline(self) -> str | None:
        """Why no miss can be folded into a window right now, whatever
        its admit tier (a ``cuts`` reason), or None: ``pinned``,
        ``session`` (a session clock), ``backing`` (an unhealthy
        device), ``miss_full`` (an anonymous pool whose tiers are all
        full: every eviction is the scalar path's)."""
        backing = self.backing
        if self._pinned:
            return "pinned"
        if self._session_clock is not None:
            return "session"
        if backing is not None and not backing.device.healthy:
            return "backing"
        if backing is None:
            counts = self._resident_counts
            for index, tier in enumerate(self.tiers):
                if counts[index] < tier.capacity_pages:
                    return None
            return "miss_full"
        return None

    def _fill_plan(self, ids_w: np.ndarray, scans_w: np.ndarray,
                   sp: np.ndarray):
        """Where a :meth:`_block_exact` window holding misses ends,
        why, and which misses it folds in.

        Returns ``(k, cut, fill)``: the window covers its first *k*
        positions, *cut* names what stopped it there (a
        :class:`LaneStats` reason), and *fill* is ``None`` or ``(fpos,
        fids, adm, pairs, evict)`` — window positions, page ids and
        admit tiers of the first touches to install, in touch order,
        ``(tier, count)`` per admit tier, and per tier whose misses
        outnumber its free frames ``(T, dirty, over, rescued)``: the
        tier, its victims' dirty flags (:meth:`_evict_charge`), which
        entries of *fpos* install behind them, and the pages to touch
        before draining them.

        A first-touch miss into a free frame changes nothing a later
        access of the window can observe but its own residency (no
        victim, no move; ``choose_admit_tiers`` answers "with the
        earlier pages installed"), so the window runs on until a miss
        carries another scan flag than the misses before it (the bulk
        call takes one) or lands on a tier off :class:`LRUPolicy`
        (where insert-then-touch leaves the insert's order, which keeps
        miss positions in the recency replay). A miss into a *full* tier stays inside too when that
        tier drains straight to storage (:meth:`_victim_turns` says
        which residents leave and where the window must stop); a
        cascade through another tier is cut and left to the scalar
        ``_fault`` chain, the reference. What :meth:`_fill_decline`
        names declines the plan outright: the window ends at its
        first miss, as it always did. Mutates nothing but the
        deferred-bookkeeping drain that reading recency order and
        dirty flags needs.
        """
        miss = sp < 0
        k = sp.shape[0]
        cut = "headroom"
        mpos = np.flatnonzero(miss)
        if not mpos.shape[0]:
            return k, cut, None
        head = int(mpos[0])
        declined = self._fill_decline()
        if declined:
            return head, declined, None
        backing = self.backing
        mids = ids_w[mpos]
        if bool((mids[1:] > mids[:-1]).all()):
            fpos = mpos                  # ascending: no page twice
        else:
            first = np.unique(mids, return_index=True)[1]
            first.sort()
            fpos = mpos[first]
        flags = scans_w[fpos]
        other = np.flatnonzero(flags != flags[0])
        if other.shape[0]:
            k = int(fpos[other[0]])
            cut = "scan_flag"
            fpos = fpos[:other[0]]
        adm = self.placement.choose_admit_tiers(ids_w[fpos],
                                                bool(flags[0]))
        if adm is None:
            return head, "placement", None
        adm = np.asarray(adm, dtype=np.int64)
        tiers = self.tiers
        if (adm.shape != fpos.shape or int(adm.min()) < 0
                or int(adm.max()) >= len(tiers)):
            return head, "placement", None
        if self._lazy_runs:
            self._drain_lazy()
        drafts = []
        for T in np.flatnonzero(np.bincount(adm)).tolist():
            tier = tiers[T]
            why = None
            free = 0
            if type(tier.policy) is not LRUPolicy:
                why = "non_lru"
            else:
                free = max(tier.capacity_pages - self._resident_counts[T],
                           0)
            turns = fpos[np.flatnonzero(adm == T)[free:]]
            turns = turns[turns < k]
            if not turns.shape[0]:
                continue
            # Misses of T beyond its free frames: each needs a victim.
            stop = int(turns[0])
            if why is None:
                if backing is None:
                    why = "miss_full"
                elif self.placement.demote_target(T) not in (None, T):
                    why = "cascade"
                else:
                    stop, why, draft = self._victim_turns(
                        T, ids_w, sp, turns, k)
                    if draft is not None:
                        drafts.append(draft)
            if stop < k:
                k, cut = stop, why
        nf = int(np.searchsorted(fpos, k))
        if nf == 0:
            return head, cut, None
        fpos = fpos[:nf]
        adm = adm[:nf]
        evict = []
        for T, dirty, turns, cand, ft, resc in drafts:
            # Another tier may have cut the window after this one was
            # drafted: its turns before the cut, their victims and the
            # rescues the window still makes stand as drafted.
            ne = int(np.searchsorted(turns, k))
            if ne:
                over = np.searchsorted(fpos, turns[:ne])
                rescued = [cand[t] for t in resc if ft[t] < k]
                evict.append((T, dirty[:ne], over, rescued))
        pairs = [(T, count) for T, count
                 in enumerate(np.bincount(adm).tolist()) if count]
        return k, cut, (fpos, ids_w[fpos], adm, pairs, evict)

    def _victim_turns(self, T: int, ids_w: np.ndarray, sp: np.ndarray,
                      turns: np.ndarray, k: int):
        """Which residents of the full, storage-draining tier *T* a
        window's misses at positions *turns* evict, and where that
        stops the window: ``(stop, why, draft)``.

        The scalar victim at each turn is the head of T's recency
        order *then*: the oldest page of the starting order that the
        window has neither evicted nor touched yet — everything the
        window touches or installs sits behind every page it has not.
        So the victims are T's LRU prefix minus the pages re-touched
        before their turn (*rescued*: their touch moved them behind),
        found in one pass over the prefix pages the window touches at
        all; untouched ones just take the turns in order. A victim
        the window touches *after* its turn is a fault there, so the
        window stops at that position (``evicted_reref``), and it
        stops at the first turn the untouched starting population
        cannot serve (``victim_bound``) — the victim would be a page
        this window touched or installed. The draft is ``None`` when
        no turn is served or :meth:`_evict_charge` refuses the victims
        (``miss_full``).
        """
        hits = int(np.count_nonzero(sp[:k] == T))
        cand = self.tiers[T].policy.peek_batch(turns.shape[0] + hits)
        ne = turns.shape[0]
        resc: list[int] = []
        stop, why = k, None
        ft = None
        if hits:
            seen = ids_w[:k]
            lo = int(seen.min())
            first = np.full(int(seen.max()) - lo + 1, k)
            # np.put keeps the last write per index: reversed, the
            # first position each page is touched at (k: nowhere).
            np.put(first, seen[::-1] - lo, np.arange(k - 1, -1, -1))
            ca = np.asarray(cand, dtype=np.int64)
            inside = (ca >= lo) & (ca < lo + first.shape[0])
            ft = np.full(ca.shape[0], k)
            ft[inside] = first[ca[inside] - lo]
            tl = turns.tolist()
            touched = np.flatnonzero(ft < k)
            for t, f in zip(touched.tolist(), ft[touched].tolist()):
                i = t - len(resc)          # the turn this page is up at
                if i >= ne:
                    break
                if f < tl[i]:
                    resc.append(t)
                elif f < stop:
                    stop, why = f, "evicted_reref"
                    ne = bisect_left(tl, f)
        if ne + len(resc) > len(cand):
            ne = len(cand) - len(resc)
            stop, why = int(turns[ne]), "victim_bound"
        if ne == 0:
            return stop, why, None
        if resc:
            keep = np.ones(len(cand), dtype=bool)
            keep[resc] = False
            victims = ca[keep][:ne].tolist()
        else:
            victims = cand[:ne]
        dirty = self._evict_charge(victims)
        if dirty is None:
            return int(turns[0]), "miss_full", None
        return stop, why, (T, dirty, turns, cand, ft, resc)

    def _register_hit(self, page_id: PageId, tier_index: int) -> None:
        """Shared hit bookkeeping for the scalar access paths."""
        self.tiers[tier_index].policy.record_access(page_id)
        self.stats.per_tier[tier_index].hits += 1

    def get_page(self, page_id: PageId) -> Page:
        """The resident Page object (faults it in at zero charge if
        needed — use :meth:`access` for timed paths)."""
        if self._lazy_runs:
            self._drain_lazy()
        if self._get(page_id, TIER) < 0:
            self._fault(page_id)
        return self._page_of(page_id)

    # -- fault path ----------------------------------------------------------------

    def _fill_charge(self, pairs) -> tuple[float, dict[int, float]]:
        """Device charges of faulting ``count`` pages into ``tier``
        per ``(tier, count)`` of *pairs*: the scalar path's backing
        read and install write under its memo protocol — one real
        stat-bumping call seeds each constant, the rest replay the
        bumps. Returns the read time (``0.0`` for an anonymous pool)
        and the install time per tier; the caller has checked the
        backing device is healthy."""
        backing = self.backing
        io = 0.0
        if backing is not None:
            device = backing.device
            size = backing.page_size
            rep = sum(count for _, count in pairs)
            memo = self._back_rd
            if memo is not None and memo[0] is device:
                io = memo[1]
            else:
                io = device.read_time(size)
                self._back_rd = (device, io, size)
                rep -= 1
            device.stats.reads += rep
            device.stats.read_bytes += rep * size
        page_size = self.page_size
        inst: dict[int, float] = {}
        for T, rep in pairs:
            path = self.tiers[T].path
            install_time = self._inst_wr.get(T)
            if install_time is None:
                install_time = path.write_time(page_size)
                self._inst_wr[T] = install_time
                rep -= 1
            if rep:
                device_stats = path.device.stats
                device_stats.stores += rep
                device_stats.store_bytes += rep * page_size
            inst[T] = install_time
        return io, inst

    def _fill_install(self, ids: np.ndarray, adm, pairs) -> None:
        """The one bulk install body: make the distinct, non-resident
        *ids* of the dense table resident, in order — their rows, the
        pages in their home, insertion-order index, resident counts
        and peaks, replacement inserts — as that many :meth:`_install`
        calls would. *adm* is one tier index or a tier per id, *pairs*
        its ``(tier, count)`` summary; every admit tier is an
        :class:`LRUPolicy` (the window cuts at any other). The rows
        start blank and the caller adds the touches.
        """
        ids_l = ids.tolist()
        if self.backing is None:
            for page_id in ids_l:
                self._anonymous(page_id)
        else:
            self.backing.ensure_many(ids_l)
        self._res_tier[ids] = adm
        self._acc[ids] = 0
        self._last_ns[ids] = 0.0
        k = len(ids_l)
        slot = self._ord_append(ids, adm, k)
        self._slot[ids] = np.arange(slot, slot + k)
        counts = self._resident_counts
        for T, count in pairs:
            counts[T] += count
            self.tiers[T].policy.record_insert_batch(
                ids if count == k else ids[adm == T])
            tier_stats = self.stats.per_tier[T]
            if counts[T] > tier_stats.resident_peak:
                tier_stats.resident_peak = counts[T]

    def _evict_charge(self, victims: list) -> list | None:
        """The dirty flags of *victims* — the storage victims a window
        chose in a full, LRU tier that drains straight to a backing
        file — or ``None`` when the bulk body cannot drop them: a
        resident page outside the dense table (the body writes columns
        only) or a dirty victim missing from the file (the
        anonymous-writeback path). Changes nothing."""
        if self._far:
            return None
        dirty = self._dirty[victims].tolist()
        if any(dirty):
            contains = self.backing.contains
            if any(df and not contains(v) for v, df in zip(victims, dirty)):
                return None
        return dirty

    def _evict_apply(self, T: int, dirty: list, io: float,
                     inst: float) -> tuple[float, float]:
        """Drop the ``len(dirty)`` victims :meth:`_evict_charge`
        validated out of tier *T* into storage — the bulk eviction
        body: ``victim_batch`` pops them (LRU: the front of the order),
        their rows go absent as array writes (tombstone, tier, dirty
        flag), each dirty one takes a real ``write_page``, and the
        eviction reads are replayed under the memo protocol (one real
        stat-bumping call seeds the constant, as the scalar path's
        first eviction does). *T* ends that many residents short; the
        caller's install refills it.

        Returns the fault latency behind a clean and behind a dirty
        victim, composed as the scalar recursion associates:
        ``(io + (0.0 + E)) + inst`` with ``E`` the eviction read, plus
        the write-back behind a dirty victim.
        """
        m = len(dirty)
        tier = self.tiers[T]
        page_size = self.page_size
        stats = self.stats
        victims = tier.policy.victim_batch(m)
        self._resident_counts[T] -= m
        evt = self._evt_rd.get(T)
        rep = m
        if evt is None:
            evt = tier.path.read_time(page_size)
            self._evt_rd[T] = evt
            rep -= 1
        if rep:
            device_stats = tier.path.device.stats
            device_stats.loads += rep
            device_stats.load_bytes += rep * page_size
        cols = np.asarray(victims, dtype=np.int64)
        stats.per_tier[T].evictions += m
        self._ord_valid[self._slot[cols]] = False
        self._res_tier[cols] = -1
        self._dirty[cols] = False
        wb = None
        dirty_ids = list(compress(victims, dirty))
        if dirty_ids:
            write_page = self.backing.write_page
            for page in (map(self._page_of, dirty_ids) if self._adopted
                         else self.backing.ensure_many(dirty_ids)):
                wb = write_page(page)
                stats.writebacks += 1
        if self._adopted:
            for v in victims:
                self._adopted.pop(v, None)
        l_clean = (io + (0.0 + evt)) + inst
        if wb is None:
            return l_clean, l_clean
        return l_clean, (io + (0.0 + (evt + wb))) + inst

    def _fault(self, page_id: PageId, is_scan: bool = False) -> float:
        """Bring a page in from backing storage; returns elapsed ns."""
        io_time = self._read_backing(page_id)
        tier_index = self.placement.choose_admit_tier(page_id, is_scan=is_scan)
        if not 0 <= tier_index < len(self.tiers):
            raise BufferPoolError(
                f"placement chose invalid tier {tier_index}"
            )
        tier = self.tiers[tier_index]
        if self._resident_counts[tier_index] < tier.capacity_pages:
            make_room_time = 0.0
        else:
            make_room_time = self._make_room(tier_index)
        install_time = self._inst_wr.get(tier_index)
        if install_time is None:
            install_time = tier.path.write_time(self.page_size)
            self._inst_wr[tier_index] = install_time
        else:
            device_stats = tier.path.device.stats
            device_stats.stores += 1
            device_stats.store_bytes += self.page_size
        self._install(page_id, tier_index)
        return io_time + make_room_time + install_time

    def _read_backing(self, page_id: PageId) -> float:
        """Materialise a faulting page in its home; returns the
        storage read time."""
        backing = self.backing
        if backing is None:
            # No backing: anonymous page, materialized on first touch.
            self._anonymous(page_id)
            return 0.0
        # The page file is the home of the whole page-id space: every
        # fault pays a storage read, constant per (device, page size).
        backing.ensure(page_id)
        device = backing.device
        memo = self._back_rd
        if memo is not None and memo[0] is device and device.healthy:
            stats = device.stats
            stats.reads += 1
            stats.read_bytes += memo[2]
            return memo[1]
        size = backing.page_size
        io_time = device.read_time(size)
        self._back_rd = (device, io_time, size)
        return io_time

    def _anonymous(self, page_id: PageId) -> Page:
        """The anonymous (backing-less) page, created on first touch."""
        if page_id < 0:
            # As PageFile.ensure refuses it for a backed pool; a
            # negative id would index the table from its end.
            raise BufferPoolError(f"invalid page id {page_id}")
        page = self._anonymous_pages.get(page_id)
        if page is None:
            page = Page(page_id=page_id, size_bytes=self.page_size)
            self._anonymous_pages[page_id] = page
        return page

    def _install(self, page_id: PageId, tier_index: int,
                 update_peak: bool = True) -> None:
        """Make a page resident in a tier: its row, residency count,
        replacement tracking, and (for the analytic lane) the tier's
        resident_peak high-water mark."""
        if 0 <= page_id < _RES_MAX_PIDS:
            if page_id >= self._cap:
                self._res_grow(page_id + 1)
            mv = self._mv
            mv[TIER][page_id] = tier_index
            mv[LAST_NS][page_id] = 0.0
            mv[ACC][page_id] = 0
        else:
            self._far[page_id] = [tier_index, 0, False, 0.0, 0, 0]
        self._set(page_id, SLOT, self._ord_append(page_id, tier_index, 1))
        self._resident_counts[tier_index] += 1
        self.tiers[tier_index].policy.record_insert(page_id)
        if update_peak:
            tier_stats = self.stats.per_tier[tier_index]
            tier_stats.resident_peak = max(
                tier_stats.resident_peak, self.tier_residents(tier_index)
            )

    def _make_room(self, tier_index: int) -> float:
        """Ensure one free frame in a tier; returns elapsed ns.

        Reads ``_resident_counts`` directly — the list every eviction
        and install mutates in place — instead of re-calling
        :meth:`tier_residents` per loop iteration. ``drop_all`` is the
        only writer that rebinds the list and cannot run mid-eviction,
        so the hoisted reference stays live across the loop.
        """
        elapsed = 0.0
        guard = 0
        counts = self._resident_counts
        capacity = self.tiers[tier_index].capacity_pages
        while counts[tier_index] >= capacity:
            guard += 1
            if guard > self.total_capacity_pages + 1:
                raise BufferPoolError("eviction livelock")
            elapsed += self._evict_one(tier_index)
        return elapsed

    def _evict_one(self, tier_index: int) -> float:
        """Evict or demote one page out of a tier; returns elapsed ns."""
        tier = self.tiers[tier_index]
        # Only pay for the pinned predicate when something is actually
        # pinned; with the default predicate LRU victim selection is
        # O(1) instead of a scan through the recency order.
        if self._pinned:
            victim_id = tier.policy.victim(self.is_pinned)
        else:
            victim_id = tier.policy.victim()
        if victim_id is None:
            raise PageFaultError(
                f"tier {tier.name}: all frames pinned, cannot evict"
            )
        target = self.placement.demote_target(tier_index)
        if target is not None and target != tier_index:
            # Demotion time is part of the fault being served: it is
            # charged as demand latency, not as migration time.
            return self._migrate_pages((victim_id,), (target,),
                                       demotion=True)
        return self._evict_to_storage(victim_id)

    def _evict_to_storage(self, page_id: PageId) -> float:
        # The row goes absent; a re-faulted page starts a new one.
        if 0 <= page_id < self._cap:
            mv = self._mv
            tier_index = mv[TIER][page_id]
            dirty = mv[DIRTY][page_id]
            slot = mv[SLOT][page_id]
            mv[TIER][page_id] = -1
            mv[DIRTY][page_id] = False
        else:
            tier_index, _, dirty, _, _, slot = self._far.pop(page_id)
        self._ord_valid[slot] = False
        page = self._page_of(page_id) if dirty else None
        if self._adopted:
            self._adopted.pop(page_id, None)
        self._resident_counts[tier_index] -= 1
        tier = self.tiers[tier_index]
        tier.policy.remove(page_id)
        self.stats.per_tier[tier_index].evictions += 1
        elapsed = self._evt_rd.get(tier_index)
        if elapsed is None:
            elapsed = tier.path.read_time(self.page_size)
            self._evt_rd[tier_index] = elapsed
        else:
            device_stats = tier.path.device.stats
            device_stats.loads += 1
            device_stats.load_bytes += self.page_size
        if dirty:
            self.stats.writebacks += 1
            if self.backing is not None and \
                    self.backing.contains(page_id):
                elapsed += self.backing.write_page(page)
            else:
                self._anonymous_pages[page_id] = page
        return elapsed

    def is_pinned(self, page_id: PageId) -> bool:
        """Whether a page holds a pin (an absent page holds none)."""
        return self._get(page_id, PINS) > 0

    # -- migration ---------------------------------------------------------------

    def migrate(self, page_id: PageId, to_tier: int) -> float:
        """Move a resident page to another tier (promotion/demotion).

        Returns the elapsed ns, which is also recorded as migration
        time and advances the pool clock (or, inside a session
        quantum, that session's clock cursor — migrations triggered by
        a session's accesses are time the session experiences).
        """
        return self.migrate_batch((page_id,), (to_tier,))

    def migrate_batch(self, page_ids: Sequence[PageId],
                      to_tiers: Sequence[int]) -> float:
        """Move ``page_ids[i]`` to ``to_tiers[i]``, in order; returns
        the summed elapsed ns.

        Equivalent to calling :meth:`migrate` once per page — the same
        device traffic, migration time, clock advances and trace spans
        in the same order, and on a pinned / non-resident page or an
        invalid tier the same error with every earlier page moved.
        """
        if len(page_ids) != len(to_tiers):
            raise BufferPoolError("migrate_batch needs one tier per page")
        if self._lazy_runs:
            self._drain_lazy()
        return self._migrate_pages(page_ids, to_tiers, demotion=False)

    def _migrate_pages(self, page_ids: Sequence[PageId],
                       to_tiers: Sequence[int], demotion: bool) -> float:
        """The one migration body. A demotion serves a fault: its time
        is the fault's demand latency, so it is returned but neither
        charged as migration time nor put on the clock.

        A run of at least ``_COLUMN_MOVES`` pages is offered to
        :meth:`_migrate_columns` first; a shorter run, or one it
        declines (a move that needs room made, an error to raise
        mid-run), takes the per-page step below."""
        if len(page_ids) >= _COLUMN_MOVES:
            total = self._migrate_columns(page_ids, to_tiers, demotion)
            if total is not None:
                return total
        if type(page_ids) is np.ndarray:
            page_ids = page_ids.tolist()
            to_tiers = np.asarray(to_tiers).tolist()
        tiers = self.tiers
        counts = self._resident_counts
        mig_rw = self._mig_rw
        page_size = self.page_size
        stats = self.stats
        trace = self._trace
        clock = self._session_clock or self.clock
        # Nothing below installs a page, so the table cannot be
        # regrown (nor the index compacted) under these.
        cap = self._cap
        far_get = self._far.get
        tier_mv, pins_mv, slot_mv = (self._mv[col]
                                     for col in (TIER, PINS, SLOT))
        ord_tier = self._ord_tier
        total = 0.0
        for page_id, to_tier in zip(page_ids, to_tiers):
            row = None
            if 0 <= page_id < cap:
                from_tier = tier_mv[page_id]
                pins = pins_mv[page_id]
            else:
                row = far_get(page_id)
                from_tier, pins = (-1, 0) if row is None else row[:2]
            if from_tier < 0:
                raise BufferPoolError(f"cannot migrate non-resident {page_id}")
            if pins:
                raise BufferPoolError(f"cannot migrate pinned page {page_id}")
            if not 0 <= to_tier < len(tiers):
                raise BufferPoolError(f"invalid tier {to_tier}")
            if from_tier == to_tier:
                continue
            src = tiers[from_tier]
            dst = tiers[to_tier]
            if counts[to_tier] < dst.capacity_pages:
                elapsed = 0.0
            else:
                elapsed = self._make_room(to_tier)
                if self._get(page_id, TIER) != from_tier:
                    raise BufferPoolError(
                        f"page {page_id} was evicted making room for its"
                        " own migration")
            rw = mig_rw.get((from_tier, to_tier))
            if rw is None:
                rw = (src.path.read_time(page_size),
                      dst.path.write_time(page_size))
                mig_rw[(from_tier, to_tier)] = rw
            else:
                # read_time/write_time also count device traffic; replay
                # those bumps when the times come from the cache.
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
            counts[from_tier] -= 1
            counts[to_tier] += 1
            if row is None:
                tier_mv[page_id] = to_tier
                ord_tier[slot_mv[page_id]] = to_tier
            else:
                row[TIER] = to_tier
                ord_tier[row[SLOT]] = to_tier
            stats.migrations += 1
            self.lane.step_migrations += 1
            if trace.enabled:
                now = clock._now
                trace.emit_span(
                    "pool.demotion" if demotion else "pool.promotion",
                    "pool", now, now + elapsed,
                    {"page": page_id, "from": src.name, "to": dst.name},
                )
            tier_stats = stats.per_tier[to_tier]
            if demotion:
                tier_stats.demotions_in += 1
            else:
                tier_stats.promotions_in += 1
                stats.migration_time_ns += elapsed
                clock._now += elapsed
            if counts[to_tier] > tier_stats.resident_peak:
                tier_stats.resident_peak = counts[to_tier]
            total += elapsed
        return total

    def _migrate_columns(self, page_ids, to_tiers,
                         demotion: bool) -> float | None:
        """Commit a run of moves as column writes — or ``None``, leaving
        it to the per-page step.

        Taken when every page is a distinct, unpinned resident of the
        dense table bound for a valid tier, every tier the run touches
        keeps LRU order, each (from, to) edge's device times are
        memoised, and — counting the run in order — no move finds its
        destination full. The per-page step's effects are then
        order-free: the tier and index-tier columns, each tier's
        ``remove_batch`` / ``record_insert_batch`` (an LRU's stamps are
        per policy, so a batch per tier stamps as the interleaved calls
        do), the integer device and tier counters, and each tier's peak
        read off its running count. What is ordered is replayed in page
        order: the three float chains (return total, migration time,
        clock) one add per page, and the trace spans."""
        ids = np.asarray(page_ids)
        tos = np.asarray(to_tiers)
        tiers = self.tiers
        T = len(tiers)
        counts = self._resident_counts
        if (ids.dtype.kind not in "iu" or tos.dtype.kind not in "iu"
                or int(tos.min()) < 0 or int(tos.max()) >= T
                # The one test a full destination fails at once (an
                # OS-paging demote pass into a full CXL tier).
                or counts[tos[0]] >= tiers[tos[0]].capacity_pages
                or int(ids.min()) < 0 or int(ids.max()) >= self._cap):
            return None
        frm = self._res_tier[ids]
        srt = np.sort(ids)
        if (int(frm.min()) < 0 or (srt[1:] == srt[:-1]).any()
                or (self._pinned and self._pins[ids].any())):
            return None
        moving = frm != tos
        if not moving.all():
            ids, frm, tos = ids[moving], frm[moving], tos[moving]
        n = ids.shape[0]
        # Each tier's resident count after every move: where it peaks,
        # and whether some move would find its destination full.
        step = np.zeros((T, n), dtype=np.int64)
        at = np.arange(n)
        step[tos, at] = 1
        step[frm, at] = -1
        run = step.cumsum(axis=1) + np.array(counts)[:, None]
        peaks = np.where(step > 0, run, -1).max(axis=1, initial=-1).tolist()
        edge = frm * T + tos
        per_edge = np.bincount(edge, minlength=T * T).tolist()
        elapsed = [0.0] * (T * T)
        for e in [e for e, moved in enumerate(per_edge) if moved]:
            rw = self._mig_rw.get(divmod(e, T))
            if rw is None:
                return None
            elapsed[e] = (0.0 + rw[0]) + rw[1]
        arrived = [sum(per_edge[t::T]) for t in range(T)]
        departed = [sum(per_edge[t * T:(t + 1) * T]) for t in range(T)]
        touched = [t for t in range(T) if arrived[t] or departed[t]]
        if any(type(tiers[t].policy) is not LRUPolicy
               or peaks[t] > tiers[t].capacity_pages for t in touched):
            return None
        # Committed from here on: nothing below can refuse.
        self._res_tier[ids] = tos
        self._ord_tier[self._slot[ids]] = tos
        stats = self.stats
        page_size = self.page_size
        for t in touched:
            tiers[t].policy.remove_batch(ids[frm == t])
            tiers[t].policy.record_insert_batch(ids[tos == t])
            counts[t] += arrived[t] - departed[t]
            device_stats = tiers[t].path.device.stats
            device_stats.loads += departed[t]
            device_stats.load_bytes += departed[t] * page_size
            device_stats.stores += arrived[t]
            device_stats.store_bytes += arrived[t] * page_size
            tier_stats = stats.per_tier[t]
            if demotion:
                tier_stats.demotions_in += arrived[t]
            else:
                tier_stats.promotions_in += arrived[t]
            tier_stats.resident_peak = max(tier_stats.resident_peak, peaks[t])
        stats.migrations += n
        self.lane.column_migrations += n
        es = np.array(elapsed)[edge].tolist()
        clock = self._session_clock or self.clock
        if demotion:
            starts = [clock._now] * n
        else:
            starts = list(accumulate(es, initial=clock._now))
            clock._now = starts.pop()
            stats.migration_time_ns = reduce(add, es, stats.migration_time_ns)
        trace = self._trace
        if trace.enabled:
            names = [tier.name for tier in tiers]
            kind = "pool.demotion" if demotion else "pool.promotion"
            for page_id, f, t, t0, e in zip(ids.tolist(), frm.tolist(),
                                            tos.tolist(), starts, es):
                trace.emit_span(kind, "pool", t0, t0 + e, {
                    "page": page_id, "from": names[f], "to": names[t]})
        return reduce(add, es, 0.0)

    # -- flushing -------------------------------------------------------------------

    def flush_all(self) -> float:
        """Write every dirty page back to storage; returns elapsed ns."""
        ids, tiers = self.resident_order()
        elapsed = 0.0
        for page_id, tier_index in zip(ids.tolist(), tiers.tolist()):
            if not self._get(page_id, DIRTY):
                continue
            elapsed += self.tiers[tier_index].path.read_time(self.page_size)
            if self.backing is not None and \
                    self.backing.contains(page_id):
                elapsed += self.backing.write_page(self._page_of(page_id))
            self._set(page_id, DIRTY, False)
            self.stats.writebacks += 1
        trace = self._trace
        if trace.enabled:
            now = self.clock.now
            trace.emit_span("pool.flush_all", "pool", now, now + elapsed)
        self.clock.advance(elapsed)
        return elapsed

    def register_page(self, page: Page) -> None:
        """Register an externally built page as faultable content.

        With a backing file the page is installed there; otherwise it
        joins the anonymous page set. No tier residency and no timing
        — the page simply becomes reachable via :meth:`access`.
        """
        self._drain_lazy()
        if self.backing is not None:
            self.backing.install(page)
        else:
            self._anonymous_pages[page.page_id] = page

    def adopt_resident(self, page: Page, tier_index: int) -> None:
        """Install a page as already resident in a tier, at zero cost.

        Used by warm engine spawn (Sec 3.2): pages cached in pooled
        CXL memory by a previous engine are adopted by its successor
        without any I/O or fabric transfer.
        """
        self._drain_lazy()
        if not 0 <= tier_index < len(self.tiers):
            raise BufferPoolError(f"invalid tier {tier_index}")
        page_id = page.page_id
        if self._get(page_id, TIER) >= 0:
            raise BufferPoolError(f"page {page_id} already resident")
        if self.tier_residents(tier_index) >= \
                self.tiers[tier_index].capacity_pages:
            raise BufferPoolError(
                f"tier {self.tiers[tier_index].name} full; cannot adopt"
            )
        backing = self.backing
        if backing is None:
            home = self._anonymous_pages.get(page_id)
        else:
            home = backing.peek(page_id) if backing.contains(page_id) \
                else None
        if home is not page:
            self._adopted[page_id] = page
        self._install(page_id, tier_index, update_peak=False)

    def resize_tier(self, tier_index: int, capacity_pages: int) -> float:
        """Change a tier's capacity in place; returns elapsed ns.

        Growing is free. Shrinking evicts (or demotes, per the
        placement policy) pages until the tier fits — the same
        make-room machinery the fault path uses, so the residency
        table stays in sync through the ordinary hooks. The elapsed
        eviction time is returned without advancing any clock; the
        caller decides whom to charge.
        """
        self._drain_lazy()
        if not 0 <= tier_index < len(self.tiers):
            raise BufferPoolError(f"invalid tier {tier_index}")
        if capacity_pages <= 0:
            raise BufferPoolError(
                f"tier {self.tiers[tier_index].name}: capacity must be"
                " positive"
            )
        self.tiers[tier_index].capacity_pages = capacity_pages
        elapsed = 0.0
        while self.tier_residents(tier_index) > capacity_pages:
            elapsed += self._evict_one(tier_index)
        return elapsed

    def drop_all(self) -> None:
        """Empty the pool without timing (test/reset helper)."""
        ids, tiers = self.resident_order()
        for page_id, tier_index in zip(ids.tolist(), tiers.tolist()):
            self.tiers[tier_index].policy.remove(page_id)
        self._res_tier.fill(-1)
        self._pins.fill(0)
        self._dirty.fill(False)
        self._far.clear()
        self._adopted.clear()
        self._ord_valid[:self._ord_len] = False
        self._ord_len = 0
        self._resident_counts = [0] * len(self.tiers)
        self._pinned = 0

    def __repr__(self) -> str:
        tiers = ", ".join(
            f"{t.name}:{self.tier_residents(i)}/{t.capacity_pages}"
            for i, t in enumerate(self.tiers)
        )
        return f"TieredBufferPool({tiers})"
