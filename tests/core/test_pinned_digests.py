"""Nine pinned simulations, each digested in both lanes.

Each scenario is rebuilt at full size and run once per lane; its
sha256 (see :mod:`tests.core.digests`) must equal a hex literal
recorded when the fast lanes landed. Both lanes meeting one literal
pins two things at once: the simulator is bit-identical to the frozen
reference, and neither has drifted by an ulp since.

The lanes (ids ``fast`` / ``compat``): the engine against its
reference twin (``tests.oracle.reference``) for the seven engine
scenarios; block emitters against scalar generators for ``trace-gen``;
``TenantTable.generate`` against ``generate_population`` →
``TenantTable.from_workloads`` for ``tenant-gen``.

A scenario's parameters are part of its literal: change one and the
literal is stale. Speed is not measured here — ``ledger/`` is the
repository's performance instrument.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import config
from repro.core.buffer import Tier, TieredBufferPool
from repro.core.engine import ScaleUpEngine
from repro.core.placement import OSPagingPolicy, StaticPolicy
from repro.core.sessions import ClientSession
from repro.serving.tenants import TenantTable
from repro.sim.context import SimContext
from repro.sim.interconnect import AccessPath, Link
from repro.sim.memory import MemoryDevice
from repro.units import PAGE_SIZE
from repro.workloads.cloudmix import generate_population
from repro.workloads.scans import (mixed_htap_blocks, mixed_htap_trace,
                                   scan_blocks)
from repro.workloads.traces import Access
from repro.workloads.ycsb import YCSBConfig, ycsb_blocks, ycsb_trace

from tests.core.digests import (digest_report, digest_session_report,
                                digest_table, digest_trace)
from tests.oracle.reference import reference

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
    engine.warm_with(ycsb_trace(YCSBConfig(
        mix="C", num_pages=3000, num_ops=12_000, seed=7)))
    return engine, list(ycsb_blocks(YCSBConfig(
        mix="B", num_pages=3000, num_ops=30_000, seed=11)))


def htap(blocks):
    """OLTP and scan traffic alternating per op: every run has length
    one. Delivered as scalar ``Access`` records or as blocks — the
    two deliveries share one literal."""
    engine = preloaded(5500, dram_pages=1500, cxl_pages=6000)
    params = dict(oltp_pages=1500, olap_pages=4000, oltp_ops=8_000,
                  olap_repeats=2, oltp_per_olap=1, seed=23)
    emit = mixed_htap_blocks if blocks else mixed_htap_trace
    return engine, list(emit(**params))


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
    sessions = [
        ClientSession(f"scan-{index}", [
            Access(page_id=index * 4000 + start, is_scan=True,
                   nbytes=16 * 4096, think_ns=0.0)
            for _ in range(8)
            for start in range(0, 4000, 16)
        ])
        for index in range(8)
    ]
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
        trace = ycsb_trace(YCSBConfig(mix="B", num_pages=2000,
                                      num_ops=2200, theta=0.9,
                                      seed=900 + index))
        sessions.append(ClientSession(f"ycsb-{index}", [
            Access(a.page_id + base, a.write, a.is_scan, a.nbytes,
                   a.think_ns)
            for a in trace
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
    generated as blocks or as scalar accesses."""
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
