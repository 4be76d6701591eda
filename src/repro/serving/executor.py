"""Sharded streaming executor: population-scale slowdown CDFs.

Running 10^6 tenant traces through the engine is neither feasible nor
necessary: tenants in the same *sensitivity bucket* (working-set size
x access skew) see the same per-access demand on a given memory
configuration — what differs per tenant is how much CPU think time
dilutes that demand. The executor therefore

1. runs one **representative trace** per bucket through the real
   engine lanes for each memory configuration (all-DRAM, all-CXL
   through the pooled fabric, and a scale-out partition where a
   fraction of accesses cross an RDMA NIC),
2. streams the columnar tenant table in deterministic contiguous
   shards and chunks, computing each tenant's slowdown vectorised as
   ``(think + d_config) / (think + d_dram)``,
3. folds the results into exact integer histograms and counters
   (:class:`~repro.serving.histogram.MergeableHistogram`) — never
   materialising per-tenant results.

Because bucket kernels depend only on (bucket, config, seed), chunk
boundaries change no float (all per-tenant math is elementwise), and
the folds are integer adds, the report is byte-identical for any shard
count or worker fan-out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import config
from ..core.buffer import Tier, TieredBufferPool
from ..core.engine import ScaleUpEngine
from ..core.placement import StaticPolicy
from ..errors import ConfigError
from ..sim.context import SimContext
from ..sim.interconnect import AccessPath, Link
from ..sim.memory import MemoryDevice
from ..units import PAGE_SIZE
from ..workloads.cloudmix import (
    THETA_CHOICES,
    WORKING_SET_CHOICES,
    CloudWorkload,
)
from .histogram import MergeableHistogram, slowdown_histogram
from .tenants import CLASS_NAMES, TenantTable

#: Penalty thresholds reported as exact integer counts (grid-free).
PENALTY_THRESHOLDS = (0.01, 0.05, 0.25)

#: Golden-ratio multiplicative hash for scale-out page striping —
#: decorrelates the remote set from Zipf rank (page id 0 is hottest).
_STRIPE_MULTIPLIER = 2654435761


@dataclass(frozen=True)
class ServingConfig:
    """Executor parameters."""

    shards: int = 1
    chunk_rows: int = 65_536
    rep_ops: int = 2_000
    rep_read_ratio: float = 0.75
    remote_fraction: float = 0.25
    # Pond pools through multi-headed direct-attach devices (Sec 2.5);
    # flip on to model a switched CXL 2.0 fabric instead.
    through_switch: bool = False
    seed: int = 7

    def __post_init__(self) -> None:
        if self.shards <= 0:
            raise ConfigError("shards must be positive")
        if self.chunk_rows <= 0:
            raise ConfigError("chunk_rows must be positive")
        if self.rep_ops <= 0:
            raise ConfigError("rep_ops must be positive")
        if not 0.0 <= self.remote_fraction <= 1.0:
            raise ConfigError("remote_fraction must be in [0, 1]")


@dataclass(frozen=True)
class BucketKernel:
    """Measured per-access demand of one sensitivity bucket."""

    working_set_pages: int
    theta: float
    d_dram_ns: float
    d_cxl_ns: float
    d_scaleout_ns: float


def bucket_grid() -> list[tuple[int, float]]:
    """All (working set, theta) buckets, in canonical order."""
    return [(ws, theta) for ws in WORKING_SET_CHOICES
            for theta in THETA_CHOICES]


def _representative(ws: int, theta: float, cfg: ServingConfig
                    ) -> CloudWorkload:
    # think_ns=0: the representative isolates memory demand; tenant
    # think time re-enters per row in the slowdown formula.
    return CloudWorkload(
        name=f"rep-{ws}-{theta}", klass="representative",
        memory_share=1.0, working_set_pages=ws, theta=theta,
        read_ratio=cfg.rep_read_ratio, num_ops=cfg.rep_ops,
        think_ns=0.0, seed=cfg.seed * 1_000_000 + ws + int(theta * 100),
    )


def _dram_engine(pages: int) -> ScaleUpEngine:
    return ScaleUpEngine.build(dram_pages=pages, with_storage=False,
                               name="serve-dram")


def _cxl_engine(pages: int, through_switch: bool) -> ScaleUpEngine:
    return ScaleUpEngine.build(
        dram_pages=1, cxl_pages=pages,
        placement=StaticPolicy(lambda _p: 1),
        through_switch=through_switch, with_storage=False,
        name="serve-cxl",
    )


def _scaleout_engine(pages: int, remote_fraction: float) -> ScaleUpEngine:
    """A two-node partition: a *remote_fraction* slice of the pages
    lives on the other node, reached through an RDMA NIC."""
    ctx = SimContext.ambient()
    local = MemoryDevice(config.local_ddr5(), name="so-local", ctx=ctx)
    remote = MemoryDevice(config.local_ddr5(), name="so-remote", ctx=ctx)
    nic = Link(config.rdma_nic_400g(), name="so-nic", ctx=ctx)
    threshold = int(remote_fraction * 2**32)

    def classify(page_id: int) -> int:
        stripe = (page_id * _STRIPE_MULTIPLIER) % 2**32
        return 1 if stripe < threshold else 0

    tiers = [
        Tier(name="local", path=AccessPath(device=local),
             capacity_pages=pages),
        Tier(name="remote", path=AccessPath(device=remote, links=(nic,)),
             capacity_pages=pages),
    ]
    pool = TieredBufferPool(tiers=tiers, backing=None,
                            placement=StaticPolicy(classify),
                            page_size=PAGE_SIZE, ctx=ctx)
    return ScaleUpEngine(pool, name="serve-scaleout")


def measure_buckets(cfg: ServingConfig) -> list[BucketKernel]:
    """Run every bucket's representative through the three lanes.

    Pure function of the config — nothing about the tenant table (its
    size, sharding, or churn) reaches the engines, which is what makes
    the population fold embarrassingly shard-invariant.
    """
    kernels: list[BucketKernel] = []
    for ws, theta in bucket_grid():
        # Built once for all three lanes: engines never write to a block.
        blocks = list(_representative(ws, theta, cfg).trace_blocks())
        pages = ws + 8
        demands = []
        for engine in (
            _dram_engine(pages),
            _cxl_engine(pages, cfg.through_switch),
            _scaleout_engine(pages, cfg.remote_fraction),
        ):
            report = engine.run(blocks)
            demands.append(report.demand_ns / report.ops)
        kernels.append(BucketKernel(
            working_set_pages=ws, theta=theta,
            d_dram_ns=demands[0], d_cxl_ns=demands[1],
            d_scaleout_ns=demands[2],
        ))
    return kernels


@dataclass
class ServingReport:
    """Slowdown distributions of one serving run."""

    tenants: int
    buckets: list[BucketKernel]
    hist: dict[str, MergeableHistogram] = field(default_factory=dict)
    #: threshold_counts[baseline][t][k] = tenants of class k whose
    #: penalty is under PENALTY_THRESHOLDS[t] (exact integers).
    threshold_counts: dict[str, np.ndarray] = field(default_factory=dict)
    class_totals: np.ndarray = field(
        default_factory=lambda: np.zeros(len(CLASS_NAMES), np.int64))

    def quantile(self, baseline: str, q: float) -> float:
        return self.hist[baseline].quantile(q)

    def share_under(self, baseline: str, threshold: float,
                    klass: int | None = None) -> float:
        """Exact share of tenants with penalty < *threshold*."""
        t = PENALTY_THRESHOLDS.index(threshold)
        counts = self.threshold_counts[baseline]
        if klass is None:
            total = self.tenants
            under = int(counts[t].sum())
        else:
            total = int(self.class_totals[klass])
            under = int(counts[t][klass])
        return under / total if total else 0.0

    def metrics(self) -> dict:
        """Flat-ish JSON-serialisable metrics for harness results."""
        out: dict = {"tenants": self.tenants}
        for baseline, hist in sorted(self.hist.items()):
            entry: dict = {
                "p50": hist.quantile(0.50),
                "p99": hist.quantile(0.99),
                "p999": hist.quantile(0.999),
                "share_under_1pct": self.share_under(baseline, 0.01),
                "share_under_5pct": self.share_under(baseline, 0.05),
                "share_under_25pct": self.share_under(baseline, 0.25),
            }
            for k, name in enumerate(CLASS_NAMES):
                entry[f"{name}_share_under_1pct"] = self.share_under(
                    baseline, 0.01, klass=k)
            out[baseline] = entry
        out["buckets"] = {
            f"ws{b.working_set_pages}_theta{b.theta}": {
                "d_dram_ns": b.d_dram_ns,
                "d_cxl_ns": b.d_cxl_ns,
                "d_scaleout_ns": b.d_scaleout_ns,
            }
            for b in self.buckets
        }
        return out


def _bucket_ids(table: TenantTable) -> np.ndarray:
    ws_idx = np.searchsorted(np.asarray(WORKING_SET_CHOICES, np.int64),
                             table.working_set_pages)
    theta_idx = np.searchsorted(np.asarray(THETA_CHOICES, np.float64),
                                table.theta)
    return ws_idx * len(THETA_CHOICES) + theta_idx


def run_serving(table: TenantTable, cfg: ServingConfig | None = None,
                buckets: list[BucketKernel] | None = None
                ) -> ServingReport:
    """Fold the whole table into slowdown distributions.

    The shard loop exists to *prove* partition invariance (and to let
    callers process cohorts on different workers): every float is
    computed elementwise per tenant and every fold is an integer add,
    so any ``cfg.shards`` produces identical bytes.
    """
    cfg = cfg or ServingConfig()
    if len(table) == 0:
        raise ConfigError("cannot serve an empty tenant table")
    kernels = buckets if buckets is not None else measure_buckets(cfg)
    d_dram = np.array([k.d_dram_ns for k in kernels])
    d_by_baseline = {
        "cxl": np.array([k.d_cxl_ns for k in kernels]),
        "scaleout": np.array([k.d_scaleout_ns for k in kernels]),
    }

    report = ServingReport(tenants=len(table), buckets=kernels)
    for baseline in d_by_baseline:
        report.hist[baseline] = slowdown_histogram()
        report.threshold_counts[baseline] = np.zeros(
            (len(PENALTY_THRESHOLDS), len(CLASS_NAMES)), np.int64)

    for shard_index in range(cfg.shards):
        shard = table.shard(shard_index, cfg.shards)
        bucket_ids = _bucket_ids(shard)
        for start in range(0, len(shard), cfg.chunk_rows):
            stop = min(start + cfg.chunk_rows, len(shard))
            ids = bucket_ids[start:stop]
            think = shard.think_ns[start:stop]
            klass = shard.klass[start:stop]
            denom = think + d_dram[ids]
            report.class_totals += np.bincount(
                klass, minlength=len(CLASS_NAMES))
            for baseline, d_cfg in d_by_baseline.items():
                slowdown = (think + d_cfg[ids]) / denom
                report.hist[baseline].add_many(slowdown)
                penalty = slowdown - 1.0
                for t, threshold in enumerate(PENALTY_THRESHOLDS):
                    report.threshold_counts[baseline][t] += np.bincount(
                        klass[penalty < threshold],
                        minlength=len(CLASS_NAMES))
    return report
