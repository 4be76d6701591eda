"""Baseline shape gating."""

import json
from pathlib import Path

import pytest

from repro.errors import ConfigError
from repro.harness.executor import CellResult
from repro.harness.gate import check_gate, load_baseline


def cell(index, assignments, result, status="ok"):
    return CellResult(
        index=index,
        cell_id=",".join(f"{k}={v}" for k, v in assignments.items()),
        assignments=assignments,
        scenario={},
        status=status,
        result=result,
    )


def line_cells():
    """An E7-shaped sweep line with a crossover at 0.1."""
    points = [
        (0.0, 1000.0, 2100.0),
        (0.05, 1080.0, 1370.0),
        (0.1, 1110.0, 1100.0),
        (0.3, 1060.0, 670.0),
    ]
    return [
        cell(i, {"workload.remote_fraction": rf},
             {"scale_up_tps": up, "scale_out_tps": out,
              "ratio": up / out})
        for i, (rf, up, out) in enumerate(points)
    ]


def run(cells, *invariants):
    return check_gate(cells, {"name": "t", "invariants": list(invariants)})


class TestMetricBound:
    def test_pass_and_fail(self):
        cells = line_cells()
        ok = run(cells, {"kind": "metric_bound",
                         "where": {"workload.remote_fraction": 0.3},
                         "metric": "ratio", "min": 1.2})
        assert ok.ok
        bad = run(cells, {"kind": "metric_bound",
                          "where": {"workload.remote_fraction": 0.3},
                          "metric": "ratio", "max": 1.2})
        assert not bad.ok
        assert "band" in bad.failures[0].message

    def test_tolerance_widens_band(self):
        cells = [cell(0, {"a": 1}, {"m": 1.10})]
        tight = run(cells, {"kind": "metric_bound", "where": {"a": 1},
                            "metric": "m", "max": 1.0})
        assert not tight.ok
        loose = run(cells, {"kind": "metric_bound", "where": {"a": 1},
                            "metric": "m", "max": 1.0,
                            "tolerance": 0.15})
        assert loose.ok

    def test_missing_metric_fails_closed(self):
        report = run(line_cells(), {"kind": "metric_bound",
                                    "where": {"workload.remote_fraction": 0.3},
                                    "metric": "nope", "min": 0})
        assert not report.ok
        assert "no metric" in report.failures[0].message

    def test_unmatched_where_fails_closed(self):
        report = run(line_cells(), {"kind": "metric_bound",
                                    "where": {"workload.remote_fraction": 9},
                                    "metric": "ratio", "min": 0})
        assert not report.ok
        assert "no successful cell" in report.failures[0].message

    def test_ambiguous_where_fails_closed(self):
        cells = [cell(0, {"a": 1, "b": 1}, {"m": 1.0}),
                 cell(1, {"a": 1, "b": 2}, {"m": 2.0})]
        report = run(cells, {"kind": "metric_bound", "where": {"a": 1},
                             "metric": "m", "min": 0})
        assert not report.ok
        assert "ambiguous" in report.failures[0].message

    def test_failed_cells_invisible_to_selectors(self):
        cells = [cell(0, {"a": 1}, None, status="failed")]
        report = run(cells, {"kind": "metric_bound", "where": {"a": 1},
                             "metric": "m", "min": 0})
        assert not report.ok


class TestRatioBound:
    def test_pass_and_fail(self):
        inv = {
            "kind": "ratio_bound",
            "numerator": {"where": {"workload.remote_fraction": 0.3},
                          "metric": "scale_up_tps"},
            "denominator": {"where": {"workload.remote_fraction": 0.3},
                            "metric": "scale_out_tps"},
            "min": 1.2, "max": 2.0,
        }
        assert run(line_cells(), inv).ok
        assert not run(line_cells(), {**inv, "min": 1.9}).ok

    def test_zero_denominator_fails_closed(self):
        cells = [cell(0, {"a": 1}, {"n": 1.0, "d": 0.0})]
        report = run(cells, {
            "kind": "ratio_bound",
            "numerator": {"where": {"a": 1}, "metric": "n"},
            "denominator": {"where": {"a": 1}, "metric": "d"},
            "min": 0,
        })
        assert not report.ok
        assert "zero" in report.failures[0].message


class TestWinner:
    def test_winner_with_margin(self):
        inv = {
            "kind": "winner",
            "larger": {"where": {"workload.remote_fraction": 0.0},
                       "metric": "scale_out_tps"},
            "smaller": {"where": {"workload.remote_fraction": 0.0},
                        "metric": "scale_up_tps"},
            "margin": 2.0,
        }
        assert run(line_cells(), inv).ok
        assert not run(line_cells(), {**inv, "margin": 2.5}).ok

    def test_upset_detected(self):
        inv = {
            "kind": "winner",
            "larger": {"where": {"workload.remote_fraction": 0.0},
                       "metric": "scale_up_tps"},
            "smaller": {"where": {"workload.remote_fraction": 0.0},
                        "metric": "scale_out_tps"},
        }
        assert not run(line_cells(), inv).ok


class TestCrossover:
    def inv(self, between):
        return {
            "kind": "crossover",
            "axis": "workload.remote_fraction",
            "metric": "scale_up_tps",
            "crosses": "scale_out_tps",
            "between": between,
        }

    def test_crossover_within_band(self):
        assert run(line_cells(), self.inv([0.05, 0.15])).ok

    def test_crossover_moved_is_a_regression(self):
        report = run(line_cells(), self.inv([0.15, 0.3]))
        assert not report.ok
        assert "overtakes" in report.failures[0].message

    def test_no_crossover_fails(self):
        cells = [
            cell(i, {"x": float(i)}, {"a": 1.0, "b": 2.0})
            for i in range(3)
        ]
        report = run(cells, {"kind": "crossover", "axis": "x",
                             "metric": "a", "crosses": "b",
                             "between": [0, 2]})
        assert not report.ok
        assert "never overtakes" in report.failures[0].message

    def test_too_few_points_fails_closed(self):
        report = run(line_cells()[:1], self.inv([0.0, 1.0]))
        assert not report.ok


class TestGatePlumbing:
    def test_unknown_kind_fails_closed(self):
        report = run(line_cells(), {"kind": "vibes"})
        assert not report.ok
        assert "unknown invariant kind" in report.failures[0].message

    def test_empty_baseline_fails_closed(self):
        report = check_gate(line_cells(), {"invariants": []})
        assert not report.ok

    def test_summary_counts(self):
        report = run(
            line_cells(),
            {"kind": "metric_bound",
             "where": {"workload.remote_fraction": 0.3},
             "metric": "ratio", "min": 1.2},
            {"kind": "vibes"},
        )
        assert "1/2 invariants hold" in report.summary()
        assert "FAIL" in report.summary()

    def test_load_baseline_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_baseline(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="invariants"):
            load_baseline(bad)

    def test_shipped_baselines_parse(self):
        root = Path(__file__).resolve().parents[2]
        baselines = sorted((root / "results" / "baselines").glob("*.json"))
        assert len(baselines) >= 4
        for path in baselines:
            data = load_baseline(path)
            assert data["invariants"], path.name
            known = {"metric_bound", "ratio_bound", "winner", "crossover"}
            for inv in data["invariants"]:
                assert inv["kind"] in known, (path.name, inv)

    def test_baseline_json_round_trip(self, tmp_path):
        baseline = {"name": "x", "invariants": [
            {"kind": "metric_bound", "where": {"a": 1}, "metric": "m",
             "min": 0.5},
        ]}
        path = tmp_path / "b.json"
        path.write_text(json.dumps(baseline))
        assert load_baseline(path) == baseline
