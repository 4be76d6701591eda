"""The ledger: this repository's benchmark runner.

    python3 ledger/run.py                        # all six workloads
    python3 ledger/run.py --workload scan_warm   # one workload
    python3 ledger/run.py --trace 1              # per-layer pass
    python3 ledger/run.py --smoke                # 1/20 size, traced, < 30 s

Closed loop, one client: every rep is one fresh ``rep.py`` process
(import -> set-up -> timed region), reps run one after another, and with
several workloads they are interleaved round-robin so that a slow
minute on a shared box costs each workload one rep. A workload is
measured until its timed regions add up to ``--seconds`` (at least
``MIN_REPS`` reps); every timed metric is the median over reps, printed
with its quartiles and rep count.

The last line of standard output is one JSON object — ``correct``,
``attempted``, ``failed``, ``metrics`` — holding the end-to-end
metrics, or with ``--trace 1`` the per-layer metrics, as
``BENCHMARK.json`` declares them. ``--out`` writes everything measured
(every rep value) for ``compare.py``. Exit code 1 when any check
failed. See ``README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

LEDGER = Path(__file__).resolve().parent
REPO = LEDGER.parent
WORKLOADS = ("scan_warm", "oltp_point", "fault_storm", "sessions_mixed",
             "serving_pond", "sweep_gated")
PROFILED = WORKLOADS[:4]
DEFAULT_SEED = 11
MIN_REPS = 4
MAX_REPS = 8
SMOKE_SCALE = 0.05
REP_TIMEOUT_S = 150


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``, interpolated inside the values' own range
    (the exclusive method reaches past min and max on a handful of
    reps); a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def run_rep(workload: str, seed: int, scale: float, mode: str) -> dict | None:
    """One rep in a fresh process; ``None`` if it died or hung."""
    command = [sys.executable, str(LEDGER / "rep.py"), workload, str(seed),
               repr(scale), mode]
    try:
        done = subprocess.run(command, cwd=REPO, capture_output=True,
                              text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"[{workload}] {mode} rep exceeded {REP_TIMEOUT_S} s",
              file=sys.stderr)
        return None
    if done.returncode != 0:
        print(f"[{workload}] {mode} rep exited {done.returncode}:\n"
              f"{done.stderr}", file=sys.stderr)
        return None
    return json.loads(done.stdout.splitlines()[-1])


class Measurement:
    """Everything measured on one workload in this invocation."""

    def __init__(self, name: str, seed: int, scale: float, trace: bool,
                 seconds: float, min_reps: int, expected: str | None) -> None:
        self.name, self.seed, self.scale = name, seed, scale
        self.trace, self.seconds, self.min_reps = trace, seconds, min_reps
        self.expected = expected
        self.plain: list[dict] = []
        self.traced: dict | None = None
        self.pycalls: int | None = None
        self.checks: list[tuple[str, bool]] = []
        self.deaths = 0
        # A traced pass needs one untraced rep to compare against, then
        # the traced rep, then (workloads 1-4) the call-counting rep.
        self.todo = ["plain", "trace"] + (
            ["profile"] if name in PROFILED else []) if trace else []

    def next_mode(self) -> str | None:
        """The mode of the next rep this workload needs, if any."""
        if self.deaths >= 2:
            return None
        if self.trace:
            return self.todo[0] if self.todo else None
        measured = sum(rep["wall_s"] for rep in self.plain)
        if len(self.plain) < self.min_reps or (
                measured < self.seconds and len(self.plain) < MAX_REPS):
            return "plain"
        return None

    def run_rep(self, mode: str) -> None:
        rep = run_rep(self.name, self.seed, self.scale, mode)
        self.checks.append((f"{mode} rep completed", rep is not None))
        if rep is None:
            self.deaths += 1
            self.todo.clear()
            return
        if self.trace:
            self.todo.pop(0)
        if mode == "profile":
            self.pycalls = rep["pycalls"]
            return
        for check, ok in rep["checks"].items():
            self.checks.append((check, bool(ok)))
        if self.expected is not None:
            self.checks.append(("digest == expected.json",
                                rep["digest"] == self.expected))
        if self.plain:
            self.checks.append(("digest == first rep's",
                                rep["digest"] == self.plain[0]["digest"]))
        if mode == "trace":
            self.traced = rep
        else:
            self.plain.append(rep)

    # -- results --------------------------------------------------------

    @property
    def failed(self) -> int:
        return sum(1 for _name, ok in self.checks if not ok)

    def end_to_end(self) -> dict[str, list[float]]:
        """Per-rep values of the four host-side end-to-end metrics; the
        three time metrics in reference seconds (``speed.py``)."""
        reps = self.plain
        return {
            "wall_s": [rep["wall_s"] for rep in reps],
            "units_per_s": [rep["units"] / rep["wall_s"] for rep in reps],
            "setup_s": [rep["setup_s"] for rep in reps],
            "peak_rss_mib": [rep["peak_rss_mib"] for rep in reps],
        }

    def per_layer(self) -> dict[str, float]:
        """Per-layer metrics of the traced rep (empty if it died)."""
        if self.traced is None or not self.plain:
            return {}
        layers = dict(self.traced["layers"])
        untraced = statistics.median(rep["wall_s"] for rep in self.plain)
        layers["trace.overhead_share"] = self.traced["wall_s"] / untraced - 1.0
        layers["host.speed"] = self.traced["host_speed"]
        layers["trace.digest_same"] = int(
            self.traced["digest"] == self.plain[0]["digest"])
        if self.pycalls is not None:
            layers["host.pycalls_per_kacc"] = \
                self.pycalls / (self.traced["units"] / 1000.0)
        return layers


def measure(names: list[str], args, expected: dict) -> list[Measurement]:
    pinned = expected if (args.seed == DEFAULT_SEED) else {}
    size = "smoke" if args.smoke else "full"
    todo = [Measurement(name, args.seed, args.scale, bool(args.trace),
                        args.seconds, 1 if args.smoke else MIN_REPS,
                        pinned.get(size, {}).get(name))
            for name in names]
    while any(m.next_mode() for m in todo):
        for m in todo:
            mode = m.next_mode()
            if mode:
                m.run_rep(mode)
    return todo


# -- output -----------------------------------------------------------------


def _number(value: float) -> str:
    return f"{value:,.4f}" if abs(value) < 1e6 else f"{value:,.1f}"


def report(m: Measurement, spec: dict, layers: dict) -> dict:
    """Print one workload's block; return its ``--out`` record."""
    print(f"== {m.name}: seed {m.seed}, scale {m.scale:g},"
          f" {len(m.plain)} untraced rep(s) ==")
    record: dict = {"reps": len(m.plain), "end_to_end": {}, "per_layer": {}}
    if m.plain:
        record["units"], record["unit"] = (m.plain[0]["units"],
                                           m.plain[0]["unit"])
        print(f"  units per rep    {record['units']:>16,} {record['unit']}")
        record["digest"] = m.plain[0]["digest"]
        print(f"  digest           {record['digest'][:16]}…"
              + ("  (pinned in expected.json)" if m.expected else ""))
        end_to_end = m.end_to_end()
        for metric in spec["end_to_end"]:
            values = end_to_end[metric["name"]]
            q1, median, q3 = quartiles(values)
            record["end_to_end"][metric["name"]] = {
                "unit": metric["unit"], "better": metric["better"],
                "bound": metric["bound"], "values": values}
            print(f"  {metric['name']:<16} {_number(median):>16}"
                  f" {metric['unit']:<8} host"
                  f"  [q1 {_number(q1)}, q3 {_number(q3)},"
                  f" n={len(values)}]")
        record["host_speed"] = [rep["host_speed"] for rep in m.plain]
        print(f"  {'host_speed':<16}"
              f" {_number(quartiles(record['host_speed'])[1]):>16}"
              f" {'ratio':<8} host  (raw seconds = reference seconds / this)")
    attempted = len(m.checks)
    print(f"  {'failed_share':<16} {m.failed / attempted:>16.4f}"
          f" {'ratio':<8} ({m.failed} of {attempted} checks failed)")
    for name, ok in m.checks:
        if not ok:
            print(f"    FAILED: {name}")
    measured = m.per_layer()
    if measured:
        print(f"  per layer (traced rep; spans in"
              f" ledger/out/{m.name}.trace.json):")
    for row in spec["per_layer"]:
        name = row["name"]
        if name not in measured:
            continue
        time_base = layers[name]["time"]
        record["per_layer"][name] = {
            "unit": row["unit"], "better": row["better"],
            "exact": time_base == "exact", "value": measured[name]}
        print(f"    {name:<46} {_number(measured[name]):>16}"
              f" {row['unit']:<10} {time_base}")
    return record


def result_line(todo: list[Measurement], spec: dict, trace: bool) -> dict:
    """The contract's last line. Per-layer metrics a workload does not
    enter read 0; with several workloads, names carry the workload."""
    metrics: dict = {}
    for m in todo:
        prefix = f"{m.name}." if len(todo) > 1 else ""
        if trace:
            measured = m.per_layer()
            for row in spec["per_layer"]:
                metrics[prefix + row["name"]] = {
                    "value": measured.get(row["name"], 0),
                    "unit": row["unit"]}
        else:
            values = m.end_to_end()
            for row in spec["end_to_end"]:
                metrics[prefix + row["name"]] = {
                    "value": quartiles(values[row["name"]])[1],
                    "unit": row["unit"]}
    failed = sum(m.failed for m in todo)
    return {"correct": failed == 0,
            "attempted": sum(len(m.checks) for m in todo),
            "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed-region seconds to measure per workload"
                             " (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1: one untraced and one traced rep per"
                             " workload, per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at 1/20 size, one rep, traced")
    parser.add_argument("--out", type=Path,
                        help="write every measured value here (compare.py)")
    args = parser.parse_args(argv)

    if not (REPO / "src" / "repro").is_dir():
        print(f"error: no program to measure: {REPO / 'src' / 'repro'}"
              " is missing", file=sys.stderr)
        return 2
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    layers = {row["name"]: row for row in
              json.loads((LEDGER / "layers.json").read_text())}
    expected = json.loads((LEDGER / "expected.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    args.scale = SMOKE_SCALE if args.smoke else 1.0
    if args.smoke:
        args.trace = 1

    names = [args.workload] if args.workload else list(WORKLOADS)
    todo = measure(names, args, expected)
    records = {m.name: report(m, spec, layers) for m in todo}
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "seed": args.seed, "scale": args.scale, "workloads": records,
        }, indent=1) + "\n")
    if not all(m.plain for m in todo):
        print("error: a workload produced no measurement", file=sys.stderr)
        return 1
    line = result_line(todo, spec, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
