"""The six ledger workloads, driven through the program's public API.

Each workload is a class: ``__init__(seed, scale, rec)`` is the set-up
(engine build, preload/warm, inputs materialised outside the timed
region), ``run()`` is the timed region, and ``outcome()`` turns what
the run produced into a digest, validity checks, exact counts and — on
a traced rep — per-layer metrics. ``wraps()`` names the entry points
the traced rep wraps (see ``trace.py``); ``probes()`` runs the
standalone layer probes after the timed region has ended.

Sizes are for ``scale == 1.0``; ``--smoke`` runs every workload at
``scale == 0.05`` with all checks on. The program under test only ever
sees generated inputs: ``seed`` feeds every RNG-bearing generator.

Why each workload exists and which layer it bypasses is written down
once, in ``BENCHMARK.json`` (``why``) and ``README.md``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import config
from repro.core import ClientSession, ScaleUpEngine, StaticPolicy
from repro.core.placement import OSPagingPolicy
from repro.units import PAGE_SIZE
from repro.workloads import (AccessBlock, YCSBConfig, scan_blocks,
                             ycsb_blocks)

from ledger import trace as tracing

REPO = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

#: Sec 2.4 figures quoted in EXPERIMENTS.md (E1), the model's reference.
PAPER_CXL_NUMA_LOAD_RATIO = 1.35
PAPER_CXL_STREAM_GBPS = 64.0
PAPER_NUMA_LOAD_EFF = 0.70
PAPER_CXL_LOAD_EFF = 0.46


def _digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _floats(obj):
    """``repr`` every float so the digest sees the last ulp."""
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, dict):
        return {key: _floats(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_floats(value) for value in obj]
    return obj


def _pool_payload(engine: ScaleUpEngine) -> dict:
    stats = engine.pool.stats
    return _floats({
        "clock_now": engine.pool.clock.now,
        "accesses": stats.accesses,
        "misses": stats.misses,
        "writebacks": stats.writebacks,
        "migrations": stats.migrations,
        "demand_time_ns": stats.demand_time_ns,
        "fault_time_ns": stats.fault_time_ns,
        "migration_time_ns": stats.migration_time_ns,
        "per_tier": [tier.snapshot() for tier in stats.per_tier],
    })


def _report_payload(report) -> dict:
    return _floats({
        "ops": report.ops,
        "total_ns": report.total_ns,
        "demand_ns": report.demand_ns,
        "think_ns": report.think_ns,
        "hit_rate": report.hit_rate,
        "tier_hit_rates": list(report.tier_hit_rates),
        "misses": report.misses,
        "migrations": report.migrations,
    })


def _pool_wraps() -> list[tuple[object, str, str]]:
    from repro.core.buffer import TieredBufferPool
    from repro.core.placement import DbCostPolicy
    from repro.core.replacement import LRUPolicy
    from repro.core.temperature import ExactTracker
    from repro.storage.file import PageFile

    targets = [(TieredBufferPool, attr, f"core.buffer.{attr}")
               for attr in ("access_block", "access_batch", "access",
                            "access_quantum", "access_run", "preload")]
    # StaticPolicy stays unwrapped: its methods are one-liners that
    # sessions_mixed calls 134 k times, ~10 % of that workload's wall.
    for policy in (DbCostPolicy, OSPagingPolicy):
        targets += [(policy, attr, f"core.placement.{attr}")
                    for attr in ("on_access", "note_accesses",
                                 "choose_admit_tiers")]
    targets.append((DbCostPolicy, "rebalance", "core.placement.rebalance"))
    targets += [(ExactTracker, attr, f"core.temperature.{attr}")
                for attr in ("record_block", "record_batch")]
    targets.append((LRUPolicy, "victim_batch",
                    "core.replacement.victim_batch"))
    targets += [(PageFile, attr, f"storage.file.{attr}")
                for attr in ("read_page", "write_page")]
    return targets


def _counts(engine: ScaleUpEngine) -> dict[str, int]:
    """The pool's exact counters; taken when set-up ends, so that the
    per-layer counts cover the timed region only."""
    stats = engine.pool.stats
    return {
        "core.buffer.accesses": stats.accesses,
        "core.buffer.misses": stats.misses,
        "core.buffer.writebacks": stats.writebacks,
        "core.buffer.migrations": stats.migrations,
        "core.buffer.tier_hits.dram": stats.per_tier[0].hits,
        "core.buffer.tier_hits.cxl": stats.per_tier[1].hits,
    }


def _pool_layers(engine: ScaleUpEngine, before: dict[str, int],
                 rec) -> dict:
    """Per-layer metrics every pool-driving workload shares."""
    flat = tracing.flatten(rec.summary(tracing.TIMED))
    flat["core.buffer.preload.busy_ms"] = rec.summary(tracing.SETUP).get(
        "core.buffer.preload", {}).get("busy_ms", 0.0)
    flat.update({name: count - before[name]
                 for name, count in _counts(engine).items()})
    accesses = flat["core.buffer.accesses"]
    flat["core.buffer.hit_rate"] = 1.0 - flat["core.buffer.misses"] / accesses
    flat["core.buffer.scalar_fallback_share"] = (
        flat.get("core.buffer.access.calls", 0) / accesses)
    return flat


class _EngineWorkload:
    """Shared shape of the three single-stream engine workloads."""

    unit = "accesses"
    engine: ScaleUpEngine

    def __init__(self, rec) -> None:
        self.rec = rec
        self.reports: list = []

    @staticmethod
    def wraps():
        return _pool_wraps()

    def _run(self, trace) -> None:
        with self.rec.span("core.engine.run"):
            self.reports.append(self.engine.run(trace))

    def _outcome(self, checks: dict[str, bool]) -> dict:
        units = sum(report.ops for report in self.reports)
        out = {
            "units": units,
            "digest": _digest({
                "reports": [_report_payload(r) for r in self.reports],
                "pool": _pool_payload(self.engine),
            }),
            "checks": checks,
        }
        if self.rec.enabled:
            layers = _pool_layers(self.engine, self.before, self.rec)
            layers["core.buffer.host_ns_per_access"] = (
                layers["core.engine.run.busy_ms"] * 1e6 / units)
            layers["core.engine.sim_total_ms"] = sum(
                r.total_ns for r in self.reports) / 1e6
            layers["core.engine.sim_demand_ms"] = sum(
                r.demand_ns for r in self.reports) / 1e6
            out["layers"] = layers
        return out


class ScanWarm(_EngineWorkload):
    name = "scan_warm"

    def __init__(self, seed: int, scale: float, rec) -> None:
        super().__init__(rec)
        self.pages = max(256, int(30_000 * scale))
        self.engine = ScaleUpEngine.build(
            dram_pages=self.pages // 6, cxl_pages=self.pages * 3 // 2,
            name=self.name)
        self.engine.preload(np.arange(self.pages, dtype=np.int64),
                            nbytes=PAGE_SIZE, is_scan=True)
        self.trace = list(scan_blocks(0, self.pages, repeats=200))
        self.before = _counts(self.engine)

    def run(self) -> None:
        self._run(self.trace)

    def outcome(self) -> dict:
        return self._outcome({"misses == 0": self.reports[0].misses == 0})

    def probes(self) -> dict:
        out = tracing.probe_traces(self.trace[:64])
        out["workloads.scan_blocks.ns_per_op"] = tracing.probe_generator(
            lambda: scan_blocks(0, self.pages, repeats=200))
        out.update(tracing.probe_ladder())
        return out


class OltpPoint(_EngineWorkload):
    name = "oltp_point"

    def __init__(self, seed: int, scale: float, rec) -> None:
        super().__init__(rec)
        pages = max(256, int(30_000 * scale))
        self.engine = ScaleUpEngine.build(
            dram_pages=pages // 5, cxl_pages=pages, name=self.name)
        self.engine.preload(np.arange(pages, dtype=np.int64),
                            nbytes=PAGE_SIZE, is_scan=True)
        self.engine.warm_with(ycsb_blocks(YCSBConfig(
            mix="C", num_pages=pages, num_ops=4 * pages, seed=seed)))
        self.config = YCSBConfig(
            mix="B", num_pages=pages, num_ops=max(1_000, int(1_200_000 * scale)),
            seed=seed + 1)
        self.before = _counts(self.engine)

    def run(self) -> None:
        trace = ycsb_blocks(self.config)
        if self.rec.enabled:
            # Traced rep only: materialise first, so that generation
            # is its own span instead of hiding inside engine.run.
            with self.rec.span("workloads.generate"):
                trace = self.blocks = list(trace)
        self._run(trace)

    def outcome(self) -> dict:
        report = self.reports[0]
        return self._outcome({
            "misses == 0": report.misses == 0,
            "live placement migrates": report.migrations > 0,
        })

    def probes(self) -> dict:
        out = tracing.probe_traces(self.blocks)
        out["workloads.ycsb_blocks.ns_per_op"] = tracing.probe_generator(
            lambda: ycsb_blocks(self.config))
        return out


class FaultStorm(_EngineWorkload):
    name = "fault_storm"

    def __init__(self, seed: int, scale: float, rec) -> None:
        super().__init__(rec)
        pages = max(512, int(40_000 * scale))
        self.engine = ScaleUpEngine.build(
            dram_pages=max(16, int(512 * scale)),
            cxl_pages=max(64, int(4_096 * scale)),
            placement=OSPagingPolicy(), name=self.name)
        self.scans = list(scan_blocks(0, pages, repeats=16))
        self.tail = list(ycsb_blocks(YCSBConfig(
            mix="A", num_pages=pages, num_ops=max(500, int(80_000 * scale)),
            seed=seed)))
        self.before = _counts(self.engine)

    def run(self) -> None:
        self._run(self.scans)
        self._run(self.tail)

    def outcome(self) -> dict:
        scan = self.reports[0]
        return self._outcome({
            "scan-phase miss share >= 0.98":
                scan.misses >= 0.98 * scan.ops,
            "write tail writes back dirty pages":
                self.engine.pool.stats.writebacks > 0,
        })

    def probes(self) -> dict:
        return {"core.replacement.victim_batch.ns_per_victim":
                tracing.probe_victim_batch()}


class SessionsMixed:
    """Eight sessions on one shared expander, built from blocks."""

    name = "sessions_mixed"
    unit = "accesses"

    def __init__(self, seed: int, scale: float, rec) -> None:
        self.rec = rec
        per = max(256, int(20_000 * scale))
        total = 8 * per
        self.engine = ScaleUpEngine.build(
            dram_pages=1, cxl_pages=total + 16,
            placement=StaticPolicy(lambda _page: 1), name=self.name)
        self.engine.preload(np.arange(total, dtype=np.int64),
                            nbytes=PAGE_SIZE, is_scan=True)
        self.sessions = []
        for index in range(4):
            # Readahead scan: one 64 KiB request per 16 pages, 48 passes.
            ids = np.tile(
                np.arange(index * per, (index + 1) * per, 16, dtype=np.int64),
                48)
            n = len(ids)
            block = AccessBlock.from_columns(
                ids, np.zeros(n, bool), np.ones(n, bool),
                np.full(n, 16 * PAGE_SIZE), np.zeros(n))
            self.sessions.append(ClientSession(f"scan-{index}", [block]))
        for index in range(4, 8):
            blocks = [
                AccessBlock(b.page_id + index * per, b.write, b.is_scan,
                            b.nbytes, b.think_ns)
                for b in ycsb_blocks(YCSBConfig(
                    mix="B", num_pages=per,
                    num_ops=max(500, int(240_000 * scale)),
                    theta=0.9, seed=seed + index))
            ]
            self.sessions.append(ClientSession(f"ycsb-{index}", blocks))
        self.before = _counts(self.engine)

    @staticmethod
    def wraps():
        return _pool_wraps()

    def run(self) -> None:
        with self.rec.span("core.sessions.run"):
            self.report = self.engine.run_sessions(self.sessions,
                                                   morsel_ops=64)

    def outcome(self) -> dict:
        report = self.report
        rows = {
            name: {"ops": s.ops, "demand_ns": s.demand_ns,
                   "think_ns": s.think_ns, "wait_ns": s.wait_ns,
                   "end_ns": s.end_ns, "misses": s.misses,
                   "migrations": s.migrations, "quanta": s.quanta}
            for name, s in sorted(report.sessions.items())
        }
        out = {
            "units": report.ops,
            "digest": _digest({
                "makespan_ns": repr(report.makespan_ns),
                "policy": report.policy,
                "sessions": _floats(rows),
                "pool": _pool_payload(self.engine),
            }),
            "checks": {
                "sim_wait_ms > 0": report.wait_ns > 0,
                "misses == 0": sum(
                    s.misses for s in report.sessions.values()) == 0,
            },
        }
        if self.rec.enabled:
            layers = _pool_layers(self.engine, self.before, self.rec)
            quanta = sum(s.quanta for s in report.sessions.values())
            busy_ns = layers["core.sessions.run.busy_ms"] * 1e6
            layers.update({
                "core.buffer.host_ns_per_access": busy_ns / report.ops,
                "core.sessions.host_ns_per_quantum": busy_ns / quanta,
                "core.sessions.quanta": quanta,
                "core.sessions.sim_wait_ms": report.wait_ns / 1e6,
                "core.sessions.sim_makespan_ms": report.makespan_ns / 1e6,
            })
            out["layers"] = layers
        return out

    def probes(self) -> dict:
        blocks = [block for session in self.sessions[3:5]
                  for block in session.trace]
        out = tracing.probe_traces(blocks)
        out["sim.events.ns_per_event"] = tracing.probe_events()
        out["sim.bandwidth.reserve_run.ns_per_op"] = \
            tracing.probe_reserve_run()
        out.update(tracing.probe_ladder())
        return out


class ServingPond:
    """The ``a8.pondscale`` cell body in-process, at 6x the gated size."""

    name = "serving_pond"
    unit = "tenants"

    def __init__(self, seed: int, scale: float, rec) -> None:
        from repro.serving import (BucketKernel, ServingConfig, TenantTable,
                                   run_serving)
        from repro.serving.executor import bucket_grid

        self.seed, self.rec = seed, rec
        self.tenants = max(2_000, int(60_000 * scale))
        self.config = ServingConfig(shards=16, rep_ops=2_000,
                                    remote_fraction=0.1, seed=seed)
        # Shard invariance is a property of the fold, whatever the
        # kernels measured: synthetic kernels keep this check out of
        # the 2 s the 36 representative engines cost.
        small = TenantTable.generate(max(1_000, self.tenants // 10),
                                     num_ops=2_000, seed=seed)
        kernels = [BucketKernel(ws, theta, 100.0 + i, 150.0 + 2 * i,
                                300.0 + 3 * i)
                   for i, (ws, theta) in enumerate(bucket_grid())]
        one, sixteen = (
            json.dumps(run_serving(
                small, ServingConfig(shards=shards, seed=seed),
                buckets=kernels).metrics(), sort_keys=True)
            for shards in (1, 16))
        self.shard_invariant = one == sixteen

    @staticmethod
    def wraps():
        return _pool_wraps()

    def run(self) -> None:
        from repro.core.autoscale import ExpanderScaler
        from repro.core.elastic import PagePool
        from repro.serving import (ChurnConfig, ChurnSimulator, TenantTable,
                                   assign_churn, run_serving)
        from repro.serving.executor import measure_buckets
        from repro.units import us

        span = self.rec.span
        with span("serving.generate"):
            table = TenantTable.generate(self.tenants, num_ops=2_000,
                                         seed=self.seed)
        with span("serving.assign_churn"):
            assign_churn(table, ChurnConfig(
                arrival_rate_per_s=2_000.0, mean_lifetime_s=1.0,
                seed=self.seed + 1))
        with span("serving.churn_sim"):
            scaler = ExpanderScaler(
                pages_per_expander=4_194_304, min_expanders=1,
                max_expanders=2, cooldown_ns=50.0 * 1e6)
            simulator = ChurnSimulator(
                table, PagePool(scaler.capacity_pages), scaler=scaler,
                reclaim_ns=us(200.0))
            self.churn = simulator.run()
        # run_serving(table, config) is exactly these two calls; made
        # apart so the fold has a span of its own.
        with span("serving.measure_buckets"):
            kernels = measure_buckets(self.config)
        with span("serving.fold"):
            self.serving = run_serving(table, self.config, buckets=kernels)
        self.table = table
        self.dispatched = simulator.sim.dispatched

    def outcome(self) -> dict:
        churn = self.churn
        result = self.serving.metrics()
        result["churn"] = {
            "admitted": churn.admitted, "departed": churn.departed,
            "waited": churn.waited, "rejected": churn.rejected,
            "peak_queue": churn.peak_queue,
            "peak_leased_pages": churn.peak_leased_pages,
            "final_capacity_pages": churn.final_capacity_pages,
            "grows": churn.grows, "shrinks": churn.shrinks,
            "horizon_ns": churn.horizon_ns,
        }
        out = {
            "units": self.tenants,
            "digest": _digest(_floats(result)),
            "checks": {
                "all tenants admitted": churn.admitted == self.tenants,
                "shards 16 == shards 1": self.shard_invariant,
            },
        }
        if self.rec.enabled:
            layers = tracing.flatten(self.rec.summary(tracing.TIMED))
            layers.update({
                "serving.bytes_per_tenant":
                    self.table.nbytes / self.tenants,
                "serving.churn.waited": churn.waited,
                "serving.churn.grows": churn.grows,
                "sim.events.dispatched": self.dispatched,
            })
            out["layers"] = layers
        return out

    def probes(self) -> dict:
        return {"sim.events.ns_per_event": tracing.probe_events()}


SWEEP_SPECS = ("e1_paths", "e2_tiering", "e4_transfer_ladder",
               "e7_distribution", "a7_interference")


class SweepGated:
    """The shipped gated sweeps (minus a8) into a temp result store."""

    name = "sweep_gated"
    unit = "cells"

    def __init__(self, seed: int, scale: float, rec) -> None:
        from repro.harness import ResultStore, load_baseline, load_sweep

        # The shipped specs carry their own seeds and the gates are
        # calibrated on them (shifted by --seed, e7's crossover gate
        # fails at 2 and 12), so this workload is the same for every
        # seed — like `make sweep`, which it stands for.
        self.rec = rec
        self.jobs = min(2, os.cpu_count() or 1)
        self.sweeps, self.baselines = [], []
        for name in SWEEP_SPECS:
            path = REPO / "specs" / f"{name}.json"
            sweep = load_sweep(path)
            self.sweeps.append(sweep)
            self.baselines.append(load_baseline(path.parent / sweep.gate))
        OUT.mkdir(exist_ok=True)
        self.scratch = Path(tempfile.mkdtemp(prefix="sweep-", dir=OUT))
        self.store = ResultStore(self.scratch / "store")

    @staticmethod
    def wraps():
        return []

    def run(self) -> None:
        from repro.harness import check_gate, run_sweep

        self.reports, self.gates = [], []
        for sweep, baseline in zip(self.sweeps, self.baselines):
            with self.rec.span(f"harness.spec.{sweep.name}"):
                report = run_sweep(sweep, jobs=self.jobs, store=self.store,
                                   use_cache=False)
            with self.rec.span("harness.gate"):
                self.gates.append(check_gate(report.cells, baseline))
            self.reports.append(report)

    def outcome(self) -> dict:
        from repro.harness import run_sweep

        cells = [cell for report in self.reports for cell in report.cells]
        out = {
            "units": len(cells),
            "digest": _digest([report.results_canonical()
                               for report in self.reports]),
            "checks": {
                "20/20 cells ok": len(cells) == 20 and all(
                    cell.status == "ok" for cell in cells),
                "all gates pass": all(gate.ok for gate in self.gates),
            },
        }
        try:
            start = time.perf_counter()
            cached = [run_sweep(sweep, jobs=self.jobs, store=self.store)
                      for sweep in self.sweeps]
            self.cached_pass_ms = (time.perf_counter() - start) * 1e3
            out["checks"]["cached pass re-simulates zero"] = all(
                report.simulated == 0 for report in cached)
            out["checks"]["cached pass is byte-identical"] = [
                report.results_canonical() for report in cached
            ] == [report.results_canonical() for report in self.reports]
            if self.rec.enabled:
                out["layers"] = self._layers(cells, cached)
        finally:
            shutil.rmtree(self.scratch, ignore_errors=True)
        return out

    def _layers(self, cells, cached) -> dict:
        timed = self.rec.summary(tracing.TIMED)
        layers = {f"{name}.wall_ms": row["busy_ms"]
                  for name, row in timed.items()
                  if name.startswith("harness.spec.")}
        sweep_ms = sum(layers.values())
        busy_ms = sum(cell.elapsed_s for cell in cells) * 1e3
        e1 = {cell.assignments["topology.target"]: cell.result
              for cell in self.reports[0].cells}
        calib = {
            "sim.calib.cxl_numa_load_ratio": (
                e1["cxl"]["load_ns"] / e1["numa"]["load_ns"],
                PAPER_CXL_NUMA_LOAD_RATIO),
            "sim.calib.cxl_stream_gbps": (
                e1["cxl"]["stream_gbps"], PAPER_CXL_STREAM_GBPS),
            "sim.calib.numa_load_eff": (
                config.numa_link().protocol_efficiency, PAPER_NUMA_LOAD_EFF),
            "sim.calib.cxl_load_eff": (
                config.cxl_expander_ddr5().load_efficiency,
                PAPER_CXL_LOAD_EFF),
        }
        layers.update({
            "harness.cell_busy_ms": busy_ms,
            "harness.fanout_efficiency": busy_ms / (self.jobs * sweep_ms),
            "harness.gate.busy_ms": timed["harness.gate"]["busy_ms"],
            "harness.gate.invariants_ok": sum(
                outcome.ok for gate in self.gates
                for outcome in gate.outcomes),
            "harness.cached_pass_ms": self.cached_pass_ms,
            "harness.store_hits": sum(report.cached for report in cached),
            "sim.calib.max_rel_err": max(
                abs(value / paper - 1.0) for value, paper in calib.values()),
        })
        layers.update({name: value for name, (value, _) in calib.items()})
        return layers

    def probes(self) -> dict:
        OUT.mkdir(exist_ok=True)
        scratch = Path(tempfile.mkdtemp(prefix="probe-", dir=OUT))
        try:
            return tracing.probe_harness(scratch, self.jobs)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (
    ScanWarm, OltpPoint, FaultStorm, SessionsMixed, ServingPond, SweepGated)}
