"""Nine pinned simulations, each digested in both lanes.

Each scenario is rebuilt at full size and run once per lane; its
sha256 (see :mod:`tests.core.digests`) must equal a hex literal
recorded when the fast lanes landed. Both lanes meeting one literal
pins two things at once: the simulator is bit-identical to the frozen
reference, and neither has drifted by an ulp since.

The lanes (ids ``fast`` / ``compat``): the engine against its
reference twin (``tests.oracle.reference``) for the seven engine
scenarios; block emitters against the frozen scalar generators
(``tests.oracle.traces``) for ``trace-gen``;
``TenantTable.generate`` against ``generate_population`` →
``TenantTable.from_workloads`` for ``tenant-gen``.

Three OLTP pins have one lane each (``test_oltp_digest_is_pinned``):
the six ``e7`` sweep cells' results, one TPC-C-lite stream record by
record with its flattened page trace, and the RDMA counters a sharded
2PC run leaves on its fabric.

Two OS-paging storms have one lane each (``test_os_paging_is_pinned``):
a cold ``OSPagingPolicy`` pool scanned three times past its capacity,
then a YCSB-A tail, so demote passes land in a full CXL tier that
writes dirty victims back. Their literals cover the pool and per-tier
stats, every device's counters, the clock, and the sampler's heat
items in insertion order (``hottest`` breaks ties by that order).

A scenario's parameters are part of its literal: change one and the
literal is stale. Speed is not measured here — ``ledger/`` is the
repository's performance instrument.
"""

from __future__ import annotations

import dataclasses
import hashlib
from pathlib import Path

import numpy as np
import pytest

from repro import config
from repro.core.buffer import Tier, TieredBufferPool
from repro.core.engine import ScaleUpEngine
from repro.core.scaleout import ScaleOutConfig, ScaleOutEngine
from repro.core.placement import OSPagingPolicy, StaticPolicy
from repro.core.sessions import ClientSession
from repro.harness import load_sweep
from repro.harness.experiments import run_scenario
from repro.serving.tenants import TenantTable
from repro.sim.context import SimContext
from repro.sim.interconnect import AccessPath, Link
from repro.sim.memory import MemoryDevice
from repro.units import PAGE_SIZE
from repro.workloads.cloudmix import generate_population
from repro.workloads.scans import mixed_htap_blocks, scan_blocks
from repro.workloads.tpcc import TPCCLite
from repro.workloads.traces import AccessBlock
from repro.workloads.ycsb import YCSBConfig, ycsb_blocks

from tests.core.digests import (digest_report, digest_session_report,
                                digest_table, digest_trace)
from tests.oracle.reference import reference
from tests.oracle.traces import (accesses_to_blocks, mixed_htap_trace,
                                 ycsb_trace)

PINNED = {
    "scan": "6817a13a2793bed3c9c184f85cca74461b805e84e30416cb1acc9a9c8f54621c",
    "oltp": "4fe756e84e7287f8ac11845bf66f722fe457da6d006be2cc9c2c5469efaa6fcb",
    "htap": "12edc401b22b7f64d3b0694823f5ccb33962e5da5d44d3c479a7f1102efd8cfb",
    "htap-blocks":
        "12edc401b22b7f64d3b0694823f5ccb33962e5da5d44d3c479a7f1102efd8cfb",
    "fault-storm":
        "0f99eafa84b5ca45e43cbd8959d7c9ade8be43ff22519de462f69cc64bbb132c",
    "scan-contended":
        "34e27fdda10f54c1a297e21fc6e463c484f4bb732278cf36a26553d30826485b",
    "oltp-contended":
        "652c13b7bbf1f57d27a9c6fe8368d35abc5a42966e055e4229e4fd60bd50d4a3",
    "trace-gen":
        "a8bf2342a8d1258fd452ef0102c59e9048e66ea1fbd314469336998fb9e41c3a",
    "tenant-gen":
        "a8e64f93211e782d3255441b0cac1b0e21fbcad64c72a72f0ab2aeacb10bbd1e",
}


def preloaded(pages, **build):
    """An engine with pages ``0 .. pages-1`` faulted in by one scan."""
    engine = ScaleUpEngine.build(**build)
    engine.preload(np.arange(pages, dtype=np.int64),
                   nbytes=PAGE_SIZE, is_scan=True)
    return engine


def scan():
    """A warm CXL-resident table scanned 8 times: every access hits."""
    engine = preloaded(3000, dram_pages=500, cxl_pages=4500)
    return engine, list(scan_blocks(0, 3000, repeats=8))


def oltp():
    """YCSB-B over a DRAM+CXL split heated by a YCSB-C warm-up, so
    cost-based placement migrates pages live during the run."""
    engine = preloaded(3000, dram_pages=600, cxl_pages=3000)
    engine.warm_with(ycsb_blocks(YCSBConfig(
        mix="C", num_pages=3000, num_ops=12_000, seed=7)))
    return engine, list(ycsb_blocks(YCSBConfig(
        mix="B", num_pages=3000, num_ops=30_000, seed=11)))


def htap(blocks):
    """OLTP and scan traffic alternating per op: every run has length
    one. Delivered as the block emitter's chunks or as the frozen
    scalar generator's accesses packed 4,096 to a block — the two
    deliveries share one literal."""
    engine = preloaded(5500, dram_pages=1500, cxl_pages=6000)
    params = dict(oltp_pages=1500, olap_pages=4000, oltp_ops=8_000,
                  olap_repeats=2, oltp_per_olap=1, seed=23)
    if blocks:
        return engine, list(mixed_htap_blocks(**params))
    return engine, list(accesses_to_blocks(mixed_htap_trace(**params)))


def fault_storm():
    """A cold pool scanned three times over ~9x its capacity, then a
    YCSB-A tail: eviction and demotion cascades, dirty writebacks."""
    engine = ScaleUpEngine.build(dram_pages=512, cxl_pages=4096,
                                 placement=OSPagingPolicy())
    trace = list(scan_blocks(0, 40_000, repeats=3))
    trace += list(ycsb_blocks(YCSBConfig(
        mix="A", num_pages=40_000, num_ops=8_000, seed=13)))
    return engine, trace


def scan_contended():
    """Eight 64 KiB readahead scan sessions on one shared expander."""
    engine = preloaded(32_000, dram_pages=1, cxl_pages=32_016,
                       placement=StaticPolicy(lambda _p: 1))
    sessions = []
    for index in range(8):
        ids = np.tile(np.arange(index * 4000, index * 4000 + 4000, 16), 8)
        n = len(ids)
        sessions.append(ClientSession(f"scan-{index}", [
            AccessBlock.from_columns(ids, np.zeros(n, bool),
                                     np.ones(n, bool),
                                     np.full(n, 16 * 4096), np.zeros(n))
        ]))
    return engine, sessions, 128


def oltp_contended():
    """Eight YCSB-B sessions on disjoint ranges, striped in 2,000-page
    extents over two independently linked expanders."""
    ctx = SimContext()
    dram = MemoryDevice(config.local_ddr5(), name="oc-dram", ctx=ctx)
    tiers = [Tier(name="dram", path=AccessPath(device=dram),
                  capacity_pages=1)]
    for i in range(2):
        device = MemoryDevice(config.cxl_expander_ddr5(),
                              name=f"oc-cxl{i}", ctx=ctx)
        port = Link(config.cxl_port(), name=f"oc-port{i}", ctx=ctx)
        tiers.append(Tier(name=f"cxl{i}",
                          path=AccessPath(device=device, links=(port,)),
                          capacity_pages=16_016))
    pool = TieredBufferPool(
        tiers=tiers, backing=None,
        placement=StaticPolicy(lambda p: 1 + ((p // 2000) & 1)),
        page_size=PAGE_SIZE, ctx=ctx)
    engine = ScaleUpEngine(pool)
    engine.preload(np.arange(16_000, dtype=np.int64),
                   nbytes=PAGE_SIZE, is_scan=True)
    sessions = []
    for index in range(8):
        base = index * 2000
        # 2,200 ops of mix B: one block.
        block, = ycsb_blocks(YCSBConfig(mix="B", num_pages=2000,
                                        num_ops=2200, theta=0.9,
                                        seed=900 + index))
        sessions.append(ClientSession(f"ycsb-{index}", [
            AccessBlock(block.page_id + base, block.write, block.is_scan,
                        block.nbytes, block.think_ns)
        ]))
    return engine, sessions, 64


ENGINE_RUNS = {
    "scan": scan,
    "oltp": oltp,
    "htap": lambda: htap(blocks=False),
    "htap-blocks": lambda: htap(blocks=True),
    "fault-storm": fault_storm,
}

SESSION_RUNS = {
    "scan-contended": scan_contended,
    "oltp-contended": oltp_contended,
}


def trace_gen(fast):
    """YCSB-E (inserts, scan expansion) plus a 4:1 HTAP interleave,
    generated as blocks or by the frozen scalar generators."""
    ycsb = YCSBConfig(mix="E", num_pages=20_000, num_ops=8_000, seed=17)
    htap_params = dict(oltp_pages=4_000, olap_pages=10_000,
                       oltp_ops=20_000, olap_repeats=2, oltp_per_olap=4,
                       seed=29)
    if fast:
        parts = (ycsb_blocks(ycsb), mixed_htap_blocks(**htap_params))
    else:
        parts = (ycsb_trace(ycsb), mixed_htap_trace(**htap_params))
    joined = "".join(digest_trace(list(part)) for part in parts)
    return hashlib.sha256(joined.encode()).hexdigest()


def tenant_gen(fast):
    """A 100,000-tenant population, drawn column-major or one
    ``CloudWorkload`` object per tenant and packed afterwards."""
    if fast:
        table = TenantTable.generate(count=100_000, num_ops=2_000, seed=7)
    else:
        table = TenantTable.from_workloads(
            generate_population(count=100_000, num_ops=2_000, seed=7))
    return digest_table(table)


def run_digest(name, fast):
    if name in ENGINE_RUNS:
        engine, trace = ENGINE_RUNS[name]()
        if not fast:
            reference(engine)
        return digest_report(engine, engine.run(trace))
    if name in SESSION_RUNS:
        engine, sessions, morsel_ops = SESSION_RUNS[name]()
        if not fast:
            reference(engine)
        report = engine.run_sessions(sessions, morsel_ops=morsel_ops)
        return digest_session_report(engine, report)
    return {"trace-gen": trace_gen, "tenant-gen": tenant_gen}[name](fast)


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "compat"])
@pytest.mark.parametrize("name", list(PINNED))
def test_digest_is_pinned(name, fast):
    assert run_digest(name, fast) == PINNED[name]


SPECS = Path(__file__).resolve().parents[2] / "specs"

PINNED_OLTP = {
    "e7-cells":
        "d198202c9c1bd24b3fcbb455d66cb0403782b30d720962acc0a61e82891ec430",
    "tpcc-stream":
        "29e97a15bff8585fe652c9700b4f3587b1172c5e3391ec2d56c681e72cc60442",
    "scaleout-fabric":
        "2868e59de1d457c19b86ba223a07024fa16cbc0e38e5fe11057602d633a07aa3",
}


def _sha256_lines(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def e7_cells():
    """The six shipped ``e7_distribution`` cells through
    ``run_scenario``: both engines' throughput and their ratio."""
    lines = []
    for cell in load_sweep(SPECS / "e7_distribution.json").cells():
        result = run_scenario(cell.scenario)
        lines.append(" ".join(repr(result[key]) for key in
                              ("scale_up_tps", "scale_out_tps", "ratio")))
    return _sha256_lines(lines)


def tpcc_stream():
    """1,500 transactions record by record, then the same stream
    flattened into page-id and write columns."""
    params = dict(num_warehouses=4, remote_probability=0.1, seed=5)
    lines = []
    for txn in TPCCLite(**params).transactions(1_500):
        lines.append(f"{txn.txn_id} {txn.profile} {txn.home_warehouse}"
                     f" {txn.remote}")
        lines += [f" {op.table} {op.warehouse} {op.key} {op.write}"
                  for op in txn.ops]
    for block in TPCCLite(**params).flat_trace_blocks(1_500):
        lines.append(block.page_id.tobytes().hex())
        lines.append(block.write.tobytes().hex())
    return _sha256_lines(lines)


def scaleout_fabric():
    """A sharded 2PC run's RDMA counters and report."""
    txns = list(TPCCLite(num_warehouses=16, remote_probability=0.2,
                         seed=9).transactions(1_500))
    engine = ScaleOutEngine(ScaleOutConfig(num_nodes=4))
    report = engine.run(txns)
    stats = engine.fabric.stats
    return _sha256_lines([
        f"{stats.reads} {stats.writes} {stats.sends} {stats.bytes}",
        f"{report.remote_ops} {report.distributed_txns}"
        f" {report.makespan_ns!r} {report.busy_ns!r}",
    ])


OLTP_RUNS = {
    "e7-cells": e7_cells,
    "tpcc-stream": tpcc_stream,
    "scaleout-fabric": scaleout_fabric,
}


@pytest.mark.parametrize("name", list(PINNED_OLTP))
def test_oltp_digest_is_pinned(name):
    assert OLTP_RUNS[name]() == PINNED_OLTP[name]


PINNED_OS_PAGING = {
    "dram32-cxl256":
        "13da63f92bbbd62600af75935f374d2435cbcbecf1f7d50c28fdb3a695600ea3",
    "dram512-cxl1024":
        "31ac0b28290c9c57814971f8b9425e80be9286e5674dfd703c3f0244798c0ce9",
}


def os_paging_storm(dram_pages, cxl_pages):
    """A cold OS-paged pool: three scans over four times its capacity,
    then a YCSB-A tail over the same pages. Digests what the run left
    in the pool, on the devices, on the clock and in the sampler."""
    pages = 4 * (dram_pages + cxl_pages)
    engine = ScaleUpEngine.build(dram_pages=dram_pages, cxl_pages=cxl_pages,
                                 placement=OSPagingPolicy())
    trace = list(scan_blocks(0, pages, repeats=3))
    trace += list(ycsb_blocks(YCSBConfig(
        mix="A", num_pages=pages, num_ops=6 * pages, seed=41)))
    report = engine.run(trace)
    pool = engine.pool
    devices = [tier.path.device.stats.snapshot() for tier in pool.tiers]
    devices.append(dataclasses.asdict(pool.backing.device.stats))
    heat = pool.placement.tracker._heat
    assert all(type(pid) is int for pid in heat)
    return _sha256_lines([
        digest_report(engine, report),
        repr(devices),
        repr(pool.clock),
        repr(pool.clock.now),
        # The pins were taken while the sampler kept numpy keys; the
        # keys are spelled that way here, so a pin covers the ids, their
        # order and their heats, and the line above their python type.
        repr([(np.int64(pid), h) for pid, h in heat.items()]),
    ])


@pytest.mark.parametrize("name", list(PINNED_OS_PAGING))
def test_os_paging_is_pinned(name):
    dram, cxl = (int(part[len(prefix):]) for part, prefix in
                 zip(name.split("-"), ("dram", "cxl")))
    assert os_paging_storm(dram, cxl) == PINNED_OS_PAGING[name]
