"""Start-up on demand: what importing and running loads.

Every test runs a snippet in a fresh interpreter, because the test
process itself has imported most of the package by now. The package
namespaces (``repro``, ``repro.core``, ``repro.sim``,
``repro.workloads``, ``repro.storage``, ``repro.query``,
``repro.metrics``) bind their names on first access; ``repro.serving``
and ``repro.harness`` stay eager, so that a serving run or a forked
sweep cell never imports a module inside its timed region.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

LAZY = ["repro", "repro.core", "repro.sim", "repro.workloads",
        "repro.storage", "repro.query", "repro.metrics"]

#: Defines ``new_modules(before)``: the repro.* and networkx modules
#: loaded since the snapshot ``before``.
PRELUDE = """
import sys
def new_modules(before):
    return sorted(m for m in set(sys.modules) - before
                  if m.split(".")[0] in ("repro", "networkx"))
"""


def run_snippet(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_repro_loads_no_engine():
    run_snippet("""
        import repro
        loaded = [m for m in sys.modules
                  if m.startswith(("repro.core", "repro.sim"))]
        assert not loaded, loaded
    """)


def test_engine_import_skips_networkx_query_ndp_hetero():
    run_snippet("""
        from repro.core import ScaleUpEngine
        loaded = [m for m in sys.modules if m.split(".")[0] == "networkx"
                  or m.startswith("repro.query")
                  or m in ("repro.core.ndp", "repro.core.hetero")]
        assert not loaded, loaded
    """)


@pytest.mark.parametrize("package", LAZY)
def test_every_public_name_resolves_and_is_listed(package):
    run_snippet(f"""
        import importlib
        package = importlib.import_module({package!r})
        listed = dir(package)
        for name in package.__all__:
            assert name in listed, name
            assert getattr(package, name) is not None, name
        try:
            package.no_such_name
        except AttributeError:
            pass
        else:
            raise AssertionError("unknown name resolved")
    """)


@pytest.mark.parametrize("package", LAZY)
def test_star_import_binds_every_public_name(package):
    run_snippet(f"""
        import importlib
        namespace = {{}}
        exec("from {package} import *", namespace)
        missing = set(importlib.import_module({package!r}).__all__) \\
            - set(namespace)
        assert not missing, missing
    """)


def test_engine_run_loads_nothing_new():
    run_snippet("""
        from repro.core import ScaleUpEngine
        from repro.workloads import YCSBConfig, ycsb_blocks
        before = set(sys.modules)
        engine = ScaleUpEngine.build(dram_pages=64, cxl_pages=256)
        engine.run(ycsb_blocks(YCSBConfig(mix="A", num_pages=400,
                                          num_ops=2_000, seed=1)))
        assert not new_modules(before), new_modules(before)
    """)


def test_run_sessions_loads_nothing_new():
    run_snippet("""
        from repro.core import ClientSession, ScaleUpEngine
        from repro.workloads import Access
        before = set(sys.modules)
        engine = ScaleUpEngine.build(dram_pages=64, cxl_pages=256)
        engine.run_sessions([
            ClientSession(f"s{s}", [Access(page_id=(7 * i + s) % 300,
                                           think_ns=100.0)
                                    for i in range(400)])
            for s in range(3)])
        assert not new_modules(before), new_modules(before)
    """)


def test_serving_with_churn_loads_nothing_new():
    # The serving workload imports these three names before its timed
    # region, and the churn pass's names inside it.
    run_snippet("""
        from repro.serving import ServingConfig, TenantTable, run_serving
        before = set(sys.modules)
        from repro.core.autoscale import ExpanderScaler
        from repro.core.elastic import PagePool
        from repro.serving import ChurnConfig, ChurnSimulator, assign_churn
        table = TenantTable.generate(300, num_ops=200, seed=3)
        assign_churn(table, ChurnConfig(arrival_rate_per_s=2_000.0,
                                        mean_lifetime_s=1.0, seed=4))
        scaler = ExpanderScaler(pages_per_expander=4_194_304,
                                min_expanders=1, max_expanders=2)
        ChurnSimulator(table, PagePool(scaler.capacity_pages),
                       scaler=scaler).run()
        run_serving(table, ServingConfig(shards=2, rep_ops=200, seed=3))
        assert not new_modules(before), new_modules(before)
    """)


def test_sweep_cells_load_nothing_new():
    # The sweep parent holds every kernel module before its first fork.
    # Each kernel is wrapped to report what its forked cell imported
    # beyond the parent's modules at fork time.
    out = run_snippet("""
        from repro.harness import Scenario, Sweep, run_sweep
        assert "repro.harness.experiments" in sys.modules
        before = set(sys.modules)
        from repro.harness import experiments

        def watched(kernel):
            def run(scenario, ctx):
                return dict(kernel(scenario, ctx),
                            new_modules=new_modules(before))
            return run

        for name in list(experiments.RUNNERS):
            experiments.RUNNERS[name] = watched(experiments.RUNNERS[name])
        cells = [
            ("e1.memory_path", {"target": "cxl", "through_switch": True},
             {"accesses": 200, "stream_bytes": 1 << 20}, {}),
            ("e2.tiering", {"dram_share": 0.5},
             {"mix": "B", "num_pages": 200, "num_ops": 1_000},
             {"kind": "os_paging"}),
            ("e4.cxl_vs_rdma", {"switch_hops": 1},
             {"transfer_bytes": 1024}, {}),
            ("e7.sharing_vs_scaleout", {"nodes": 2},
             {"warehouses": 4, "txns": 60, "remote_fraction": 0.1}, {}),
            ("a7.interference", {"expanders": 1},
             {"point_sessions": 1, "scan_sessions": 1, "point_ops": 100,
              "oltp_pages": 100, "olap_pages": 200, "scan_repeats": 1},
             {"morsel_ops": 8}),
            ("a8.pondscale",
             {"pages_per_expander": 4_194_304, "max_expanders": 2},
             {"tenants": 200, "mean_lifetime_s": 1.0,
              "remote_fraction": 0.1},
             {"shards": 1, "rep_ops": 200}),
        ]
        for experiment, topology, workload, policy in cells:
            base = Scenario(experiment=experiment, topology=topology,
                            workload=workload, policy=policy, seed=5)
            sweep = Sweep(name=experiment, base=base, axes={},
                          per_cell_seeds=False)
            report = run_sweep(sweep, jobs=1)
            cell, = report.cells
            assert cell.status == "ok", (experiment, cell.error)
            assert cell.result["new_modules"] == [], \\
                (experiment, cell.result["new_modules"])
        assert not new_modules(before), new_modules(before)
        print("cells ok")
    """)
    assert "cells ok" in out
