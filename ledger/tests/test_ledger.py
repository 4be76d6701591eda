"""The ledger's own checks: smoke run, compare verdicts, determinism."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ledger import compare, run, speed, trace

REPO = Path(__file__).resolve().parents[2]
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
PER_LAYER = [row["name"] for row in SPEC["per_layer"]]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One ``--smoke`` run: its last line and its ``--out`` file."""
    out = tmp_path_factory.mktemp("smoke") / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(REPO / "ledger" / "run.py"), "--smoke",
         "--out", str(out)],
        cwd=REPO, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1]), json.loads(out.read_text())


def test_smoke_passes_every_check(smoke):
    line, result = smoke
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 6 * 4
    assert set(result["workloads"]) == set(run.WORKLOADS)
    for name in run.WORKLOADS:
        # Several workloads in one run: names carry the workload, and a
        # layer a workload does not enter reads 0.
        assert {f"{name}.{metric}" for metric in PER_LAYER} <= set(
            line["metrics"])
        layers = result["workloads"][name]["per_layer"]
        assert layers["trace.digest_same"]["value"] == 1


def test_bypass_predictions_hold(smoke):
    _line, result = smoke
    layers = {name: record["per_layer"]
              for name, record in result["workloads"].items()}
    assert layers["scan_warm"]["core.buffer.misses"]["value"] == 0
    for workload in ("scan_warm", "sessions_mixed"):
        miss_side = [name for name in layers[workload]
                     if name.startswith(("core.replacement.",
                                         "storage.file."))]
        assert miss_side == [], (workload, miss_side)
    for workload, measured in layers.items():
        for prefix, owner in (("core.sessions.", "sessions_mixed"),
                              ("harness.", "sweep_gated"),
                              ("serving.", "serving_pond")):
            entered = any(name.startswith(prefix) for name in measured)
            assert entered == (workload == owner), (workload, prefix)


def test_engine_run_span_reconciles(smoke):
    """self time + direct children == busy time, from the span file."""
    payload = json.loads(
        (REPO / "ledger" / "out" / "oltp_point.trace.json").read_text())
    names, spans = payload["names"], payload["spans"]
    root = next(i for i, span in enumerate(spans)
                if names[span[0]] == "core.engine.run")
    busy = spans[root][2] - spans[root][1]
    children = sum(end - start for _n, start, end, parent in spans
                   if parent == root)
    layers = smoke[1]["workloads"]["oltp_point"]["per_layer"]
    self_ms = layers["core.engine.run.self_ms"]["value"]
    assert busy / 1e6 == pytest.approx(
        layers["core.engine.run.busy_ms"]["value"])
    assert self_ms + children / 1e6 == pytest.approx(busy / 1e6, rel=0.01)


def test_benchmark_json_matches_the_ledger():
    rows = json.loads((REPO / "ledger" / "layers.json").read_text())
    assert SPEC["per_layer"] == [
        {key: row[key] for key in ("name", "unit", "better")} for row in rows]
    assert len(PER_LAYER) <= 128
    assert {row["time"] for row in rows} == {"host", "exact"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert SPEC["paths"] == ["ledger"]
    assert "setup_s" in {row["name"] for row in SPEC["end_to_end"]}
    expected = json.loads((REPO / "ledger" / "expected.json").read_text())
    for size in ("full", "smoke"):
        assert set(expected[size]) == set(run.WORKLOADS)


def test_digest_is_deterministic_and_seed_sensitive():
    first, again, other = (
        run.run_rep("oltp_point", seed, run.SMOKE_SCALE, "plain")
        for seed in (11, 11, 12))
    assert first["digest"] == again["digest"]
    assert first["digest"] != other["digest"]
    assert all(other["checks"].values())


def test_missing_program_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "ledger", tmp_path / "ledger",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "ledger/run.py", "--workload", "scan_warm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


# -- compare.py verdicts on synthetic inputs ------------------------------


def _result(wall: list[float], exact: int = 7, digest: str = "d") -> dict:
    return {"workloads": {"w": {
        "digest": digest,
        "end_to_end": {"wall_s": {"unit": "s", "better": "lower",
                                  "bound": 0.10, "values": wall}},
        "per_layer": {
            "layer.calls": {"unit": "count", "better": "lower",
                            "exact": True, "value": exact},
            "layer.busy_ms": {"unit": "ms", "better": "lower",
                              "exact": False, "value": sum(wall)}},
    }}}


@pytest.mark.parametrize("b_wall, expected", [
    ([1.00, 1.01, 1.02], "same"),
    ([1.20, 1.21, 1.22], "worse"),
    ([0.80, 0.81, 0.82], "better"),
    ([0.90, 1.01, 1.30], "unresolved"),   # wide and overlapping
    ([1.04, 1.05, 1.06], "same"),         # worse, but within the bound
    # Wider than the bound: only a clean sweep by B escapes `unresolved`,
    # and only a clean sweep by A past the bound reads `worse`.
    ([1.03, 1.08, 1.25], "unresolved"),   # every run worse, delta in bound
    ([0.70, 0.80, 0.99], "better"),
    ([1.30, 1.50, 1.70], "worse"),
])
def test_compare_verdicts(b_wall, expected):
    rows = compare.compare(_result([1.00, 1.01, 1.02]), _result(b_wall))
    wall = next(row for row in rows if row["metric"] == "wall_s")
    assert wall["verdict"] == expected


def test_compare_direction_follows_better():
    what, delta, _ = compare.verdict([100.0, 101.0, 102.0],
                                     [80.0, 81.0, 82.0], "higher", 0.10)
    assert what == "worse" and delta > 0


def test_compare_exact_metrics_and_order():
    rows = compare.compare(_result([1.0, 1.01, 1.02]),
                           _result([0.8, 0.81, 0.82], exact=8, digest="e"))
    assert [row["verdict"] for row in rows] == ["changed", "changed", "better"]
    assert {row["metric"] for row in rows[:2]} == {"digest", "layer.calls"}
    # host-time per-layer values are never compared with ==
    assert all(row["metric"] != "layer.busy_ms" for row in rows)


def test_compare_exact_metric_on_one_side_only_is_changed():
    a, b = _result([1.0, 1.01, 1.02]), _result([1.0, 1.01, 1.02])
    del b["workloads"]["w"]["per_layer"]["layer.calls"]
    for rows in (compare.compare(a, b), compare.compare(b, a)):
        assert rows[0]["metric"] == "layer.calls"
        assert rows[0]["verdict"] == "changed"


def test_quartiles_stay_inside_the_values():
    assert run.quartiles([5.0]) == (5.0, 5.0, 5.0)
    q1, median, q3 = run.quartiles([1.0, 2.0, 4.0])
    assert 1.0 <= q1 <= median == 2.0 <= q3 <= 4.0


# -- trace.py ---------------------------------------------------------------


class _Layer:
    def outer(self, n):
        return sum(self.inner(i) for i in range(n))

    def inner(self, i):
        return i

    inner.flag = True


def test_recorder_wraps_summarises_and_restores():
    rec = trace.Recorder()
    rec.wrap(_Layer, "outer", "layer.outer")
    rec.wrap(_Layer, "inner", "layer.inner")
    assert _Layer.inner.flag is True          # attributes carried across
    with rec.span(trace.SETUP):
        _Layer().inner(1)
    with rec.span(trace.TIMED):
        assert _Layer().outer(3) == 3
    rec.restore()
    assert "__wrapped__" not in vars(_Layer.outer)
    timed = rec.summary(trace.TIMED)
    assert timed["layer.outer"]["calls"] == 1
    assert timed["layer.inner"]["calls"] == 3     # set-up call left out
    outer, inner = timed["layer.outer"], timed["layer.inner"]
    assert outer["self_ms"] == pytest.approx(
        outer["busy_ms"] - inner["busy_ms"])
    assert rec.summary(trace.SETUP)["layer.inner"]["calls"] == 1


def test_null_recorder_records_nothing():
    rec = trace.NullRecorder()
    with rec.span("anything"):
        pass
    assert rec.enabled is False


# -- speed.py ---------------------------------------------------------------


def test_speed_sampler_reads_a_plausible_speed():
    sampler = speed.SpeedSampler()
    sampler.start()
    deadline = time.perf_counter() + 5.0
    while len(sampler._samples) < 2:   # bytecodes for the ticks to interrupt
        assert time.perf_counter() < deadline
    assert 0.1 < sampler.stop() < 10.0
    # Too short for a tick: sampled once on stop, never a division by zero.
    sampler.start()
    assert sampler.stop() > 0.0
