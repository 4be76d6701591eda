"""``tools/pairs.py``'s summary of alternating ledger pairs, on
synthetic ``ledger/run.py --out`` records."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("pairs_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record(wall_reps, rss_reps, workload="scan_warm"):
    """One ``--out`` file: two end-to-end metrics of one workload."""
    return {"workloads": {workload: {"end_to_end": {
        "wall_s": {"unit": "s", "better": "lower", "bound": 0.25,
                   "values": wall_reps},
        "peak_rss_mib": {"unit": "MiB", "better": "lower", "bound": 0.1,
                         "values": rss_reps},
    }}}}


def test_summary_counts_wins_and_claims_a_gain(pairs):
    # Ten pairs: the change runs ~15 % faster in nine, slower in one;
    # memory is flat. A run's value is the median of its reps.
    data = []
    for i in range(10):
        a = 1.40 + 0.01 * (i % 3)
        b = 1.45 if i == 4 else 1.19 + 0.01 * (i % 2)
        data.append((record([a - 0.05, a, a + 0.30], [57.0]),
                     record([b, b + 0.40, b - 0.02], [57.0])))
    rows = {row["metric"]: row for row in pairs.summarize(data)}
    wall = rows["wall_s"]
    assert (wall["workload"], wall["pairs"], wall["wins"]) \
        == ("scan_warm", 10, 9)
    assert wall["a"][1] == pytest.approx(1.41)
    assert wall["b"][1] == pytest.approx(1.20)
    assert wall["delta"] == pytest.approx(1.20 / 1.41 - 1)
    assert wall["verdict"] == "same"    # one slow pair: not every run wins
    assert wall["gain"]
    rss = rows["peak_rss_mib"]
    assert (rss["wins"], rss["delta"], rss["gain"]) == (0, 0.0, False)
    text = pairs.render(pairs.summarize(data))
    assert "wins 9/10" in text and text.splitlines()[0].endswith("gain")


def test_eight_wins_in_ten_is_no_gain(pairs):
    data = [(record([1.0], [50.0]), record([0.8 if i < 8 else 1.2],
                                           [50.0])) for i in range(10)]
    wall = pairs.summarize(data)[0]
    assert wall["wins"] == 8 and not wall["gain"]


def test_a_metric_one_side_lacks_is_skipped(pairs):
    data = [(record([1.0], [50.0]), record([0.9], [50.0]))]
    del data[0][1]["workloads"]["scan_warm"]["end_to_end"]["peak_rss_mib"]
    assert [row["metric"] for row in pairs.summarize(data)] == ["wall_s"]


def test_bad_arguments_print_the_usage(pairs, capsys):
    assert pairs.main(["parent", "change"]) == 2
    assert pairs.main(["parent", "change", "zero"]) == 2
    assert "tools/pairs.py PARENT CHANGE N" in capsys.readouterr().err
