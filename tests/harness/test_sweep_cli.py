"""`repro sweep` end to end: the acceptance criteria of the harness.

Uses the shipped specs under specs/ — the same files `make sweep` and
CI run — against temporary stores and output dirs.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.harness.executor import run_sweep
from repro.harness.gate import check_gate, load_baseline
from repro.harness.scenario import load_sweep
from repro.harness.store import ResultStore

REPO = Path(__file__).resolve().parents[2]
SPECS = REPO / "specs"


def sweep_args(spec, tmp_path, *extra):
    return [
        "sweep", str(spec),
        "--store", str(tmp_path / "store"),
        "--out-dir", str(tmp_path / "sweeps"),
        "--quiet", *extra,
    ]


class TestDeterminism:
    @pytest.mark.parametrize("spec_name", [
        "e1_paths", "e2_tiering", "e4_transfer_ladder",
        "e7_distribution",
    ])
    def test_parallel_equals_serial_byte_identical(self, spec_name):
        sweep = load_sweep(SPECS / f"{spec_name}.json")
        serial = run_sweep(sweep, jobs=1, timeout_s=300)
        parallel = run_sweep(sweep, jobs=4, timeout_s=300)
        assert serial.ok and parallel.ok
        assert serial.results_canonical() == parallel.results_canonical()


class TestSweepCommand:
    def test_gated_run_exits_zero(self, tmp_path, capsys):
        code = main(sweep_args(SPECS / "e1_paths.json", tmp_path,
                               "--gate", "--jobs", "2"))
        out = capsys.readouterr().out
        assert code == 0
        assert "gate e1_paths: PASS" in out
        report = json.loads(
            (tmp_path / "sweeps" / "e1_paths.json").read_text())
        assert report["counts"] == {"ok": 3}
        assert len(report["cells"]) == 3

    def test_rerun_hits_cache_and_says_so(self, tmp_path, capsys):
        args = sweep_args(SPECS / "e4_transfer_ladder.json", tmp_path,
                          "--jobs", "2")
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "4 cached" in out
        assert "all 4 cells served from cache; zero re-simulated" in out

    def test_cached_rerun_is_byte_identical(self, tmp_path):
        args = sweep_args(SPECS / "e1_paths.json", tmp_path)
        out_file = tmp_path / "sweeps" / "e1_paths.json"
        assert main(args) == 0
        first = json.loads(out_file.read_text())
        assert main(args) == 0
        second = json.loads(out_file.read_text())
        strip = [
            {"cell_id": c["cell_id"], "result": c["result"]}
            for c in first["cells"]
        ]
        strip2 = [
            {"cell_id": c["cell_id"], "result": c["result"]}
            for c in second["cells"]
        ]
        assert strip == strip2

    def test_violated_baseline_exits_nonzero(self, tmp_path, capsys):
        # Deliberately bend a shape invariant: claim CXL loads are
        # *faster* than NUMA loads.
        baseline = {
            "name": "tampered",
            "invariants": [{
                "kind": "ratio_bound",
                "numerator": {"where": {"topology.target": "cxl"},
                              "metric": "load_ns"},
                "denominator": {"where": {"topology.target": "numa"},
                                "metric": "load_ns"},
                "max": 0.9,
            }],
        }
        baseline_path = tmp_path / "tampered.json"
        baseline_path.write_text(json.dumps(baseline))
        code = main(sweep_args(SPECS / "e1_paths.json", tmp_path,
                               "--baseline", str(baseline_path)))
        out = capsys.readouterr().out
        assert code == 1
        assert "gate tampered: FAIL" in out

    def test_failed_cell_exits_nonzero(self, tmp_path, capsys):
        spec = tmp_path / "fail.json"
        spec.write_text(json.dumps({
            "name": "failing",
            "base": {"experiment": "debug.fail"},
            "axes": {"workload.i": [1, 2]},
        }))
        code = main(sweep_args(spec, tmp_path))
        captured = capsys.readouterr()
        assert code == 1
        assert "FAILED" in captured.err

    def test_missing_spec_is_usage_error(self, tmp_path, capsys):
        code = main(sweep_args(tmp_path / "absent.json", tmp_path))
        assert code == 2
        assert "cannot read sweep spec" in capsys.readouterr().err

    def test_toml_spec_is_usage_error(self, tmp_path, capsys):
        spec = tmp_path / "x.toml"
        spec.write_text('name = "x"\n[base]\nexperiment = "debug.echo"\n')
        code = main(sweep_args(spec, tmp_path))
        assert code == 2
        assert "JSON" in capsys.readouterr().err

    def test_gate_without_baseline_is_usage_error(self, tmp_path,
                                                  capsys):
        spec = tmp_path / "nogate.json"
        spec.write_text(json.dumps({
            "name": "nogate",
            "base": {"experiment": "debug.echo"},
            "axes": {"workload.i": [1]},
        }))
        code = main(sweep_args(spec, tmp_path, "--gate"))
        assert code == 2
        assert "no 'gate' entry" in capsys.readouterr().err

    def test_inline_gate_in_spec(self, tmp_path, capsys):
        spec = tmp_path / "inline.json"
        spec.write_text(json.dumps({
            "name": "inline",
            "base": {"experiment": "debug.echo",
                     "workload": {"x": 3}},
            "axes": {"workload.x": [3]},
            "per_cell_seeds": False,
            "gate": {"name": "inline-gate", "invariants": [
                {"kind": "metric_bound", "metric": "workload.x",
                 "min": 3, "max": 3},
            ]},
        }))
        code = main(sweep_args(spec, tmp_path, "--gate"))
        out = capsys.readouterr().out
        assert code == 0
        assert "gate inline-gate: PASS" in out

    def test_out_with_multiple_specs_rejected(self, tmp_path, capsys):
        code = main([
            "sweep", str(SPECS / "e1_paths.json"),
            str(SPECS / "e4_transfer_ladder.json"),
            "--out", str(tmp_path / "one.json"),
        ])
        assert code == 2
        assert "--out works with a single spec" in \
            capsys.readouterr().err

    def test_explicit_out_path(self, tmp_path):
        out = tmp_path / "nested" / "report.json"
        code = main(sweep_args(SPECS / "e4_transfer_ladder.json",
                               tmp_path, "--out", str(out)))
        assert code == 0
        assert json.loads(out.read_text())["name"] == "e4_transfer_ladder"

    def test_timeout_flag_reaches_cells(self, tmp_path, capsys):
        spec = tmp_path / "slow.json"
        spec.write_text(json.dumps({
            "name": "slow",
            "base": {"experiment": "debug.sleep",
                     "workload": {"seconds": 30.0}},
            "axes": {"workload.i": [1]},
        }))
        code = main(sweep_args(spec, tmp_path, "--timeout", "0.3"))
        assert code == 1
        assert "timeout" in capsys.readouterr().out


class TestShippedGates:
    """Every shipped spec gate-passes from the committed store."""

    @pytest.mark.parametrize("spec_name", ["e2_tiering",
                                           "e7_distribution"])
    def test_spec_gates_pass(self, spec_name, tmp_path, capsys):
        # Through the CLI, served from a copy of the committed store;
        # test_committed_store_serves_and_gates simulates these fresh.
        shutil.copytree(REPO / "results" / "store", tmp_path / "store")
        code = main(sweep_args(SPECS / f"{spec_name}.json", tmp_path,
                               "--gate"))
        out = capsys.readouterr().out
        assert code == 0, out
        assert f"gate {spec_name}: PASS" in out
        assert "zero re-simulated" in out

    def test_committed_store_holds_only_spec_cells(self):
        # The store is keyed by scenario: a spec edit leaves its old
        # entries behind as orphans that no sweep reads again.
        stored = {path.stem for path in
                  (REPO / "results" / "store").glob("*/*.json")}
        cells = {cell.scenario.content_hash()
                 for path in SPECS.glob("*.json")
                 for cell in load_sweep(path).cells()}
        assert stored - cells == set(), "orphaned store entries"
        assert cells - stored == set(), "spec cells missing from store"

    @pytest.mark.parametrize("spec_name", sorted(
        path.stem for path in SPECS.glob("*.json")))
    def test_committed_store_serves_and_gates(self, spec_name, tmp_path):
        # Every shipped spec's cells are committed under results/store/:
        # served from a copy of it, a sweep simulates nothing and the
        # stored results pass the spec's gate. The store is keyed by
        # scenario, not by code, so a fresh simulation must reproduce
        # it byte for byte, or `make sweep` would gate stale results.
        store = tmp_path / "store"
        shutil.copytree(REPO / "results" / "store", store)
        path = SPECS / f"{spec_name}.json"
        sweep = load_sweep(path)
        report = run_sweep(sweep, jobs=1, store=ResultStore(store))
        assert report.ok and report.simulated == 0, report.counts
        gate = check_gate(report.cells,
                          load_baseline(path.parent / sweep.gate))
        assert gate.ok, [str(o) for o in gate.failures]
        fresh = run_sweep(sweep, jobs=2, timeout_s=300)
        assert fresh.results_canonical() == report.results_canonical()
