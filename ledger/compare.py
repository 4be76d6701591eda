"""Compare two result files by the benchmark's own rules.

    python3 ledger/compare.py A.json B.json

A and B are ``run.py --out`` files (A the parent, B the change). Per
(end-to-end metric, workload) row: both medians with quartiles, the
delta as a share of A's median, and a verdict:

``worse``       B's median is worse than A's by more than the bound,
                and either the spread is within the bound or every B
                run is worse than every A run;
``unresolved``  the run-to-run spread (widest inter-quartile range of
                the two sides, as a share of A's median) exceeds the
                metric's bound, unless every B run is better than every
                A run;
``better``      both sides have at least three runs, every B run is
                better than every A run, and the medians differ by more
                than A's own inter-quartile range;
``same``        anything else.

``better`` from one pair of files is a screen, not a claim: a gain is
claimed from ten alternating pairs (choosing-metrics, section 8).

Exact per-layer metrics and digests are compared with ``==`` and read
``same`` or ``changed``; one that only one side reports is ``changed``
(a route was dropped or added). Regressions are listed before wins. Exit code
1 if any row is ``worse``, ``unresolved`` or ``changed``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from ledger.run import quartiles   # noqa: E402

ORDER = {"worse": 0, "changed": 0, "unresolved": 1, "better": 2, "same": 3}


def verdict(a: list[float], b: list[float], better: str,
            bound: float) -> tuple[str, float, float]:
    """``(verdict, delta, spread)``; delta > 0 means B is worse."""
    sign = 1.0 if better == "lower" else -1.0
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    delta = sign * (b_med - a_med) / a_med
    spread = max(a_q3 - a_q1, b_q3 - b_q1) / a_med
    b_wins_all = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
    a_wins_all = (max(a) < min(b)) if better == "lower" else (min(a) > max(b))
    if delta > bound and (spread <= bound or a_wins_all):
        return "worse", delta, spread
    if spread > bound and not b_wins_all:
        return "unresolved", delta, spread
    if (min(len(a), len(b)) >= 3 and b_wins_all
            and -delta > (a_q3 - a_q1) / a_med):
        return "better", delta, spread
    return "same", delta, spread


def compare(a: dict, b: dict) -> list[dict]:
    """One row per metric and workload present in both files."""
    rows = []
    for workload, a_rec in a["workloads"].items():
        b_rec = b["workloads"].get(workload)
        if b_rec is None:
            continue
        for name, a_m in a_rec["end_to_end"].items():
            b_m = b_rec["end_to_end"].get(name)
            if b_m is None:
                continue
            what, delta, spread = verdict(
                a_m["values"], b_m["values"], a_m["better"], a_m["bound"])
            rows.append({
                "workload": workload, "metric": name, "unit": a_m["unit"],
                "a": quartiles(a_m["values"]), "b": quartiles(b_m["values"]),
                "n": (len(a_m["values"]), len(b_m["values"])),
                "delta": delta, "spread": spread, "bound": a_m["bound"],
                "verdict": what})
        exact = [("digest", a_rec.get("digest"), b_rec.get("digest"))]
        a_exact, b_exact = ({name: m["value"] for name, m in
                             rec["per_layer"].items() if m["exact"]}
                            for rec in (a_rec, b_rec))
        exact += [(name, a_exact.get(name), b_exact.get(name))
                  for name in sorted(a_exact.keys() | b_exact.keys())]
        for name, a_value, b_value in exact:
            rows.append({
                "workload": workload, "metric": name, "exact": True,
                "a": a_value, "b": b_value,
                "verdict": "same" if a_value == b_value else "changed"})
    rows.sort(key=lambda row: ORDER[row["verdict"]])
    return rows


def render(rows: list[dict]) -> str:
    lines = []
    for row in rows:
        head = f"{row['verdict']:<10} {row['workload']:<15} {row['metric']}"
        if row.get("exact"):
            if row["verdict"] == "changed":
                lines.append(f"{head}: {row['a']} -> {row['b']}")
            continue
        (a_q1, a_med, a_q3), (b_q1, b_med, b_q3) = row["a"], row["b"]
        lines.append(
            f"{head:<42} A {a_med:.4f} [{a_q1:.4f}, {a_q3:.4f}] n={row['n'][0]}"
            f"  B {b_med:.4f} [{b_q1:.4f}, {b_q3:.4f}] n={row['n'][1]}"
            f" {row['unit']}  delta {row['delta']:+.1%} of A's median"
            f" (worse is +), spread {row['spread']:.1%},"
            f" bound {row['bound']:.0%}")
    exact = [row for row in rows if row.get("exact")]
    same = sum(1 for row in exact if row["verdict"] == "same")
    lines.append(f"exact metrics and digests: {same} of {len(exact)} identical")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    rows = compare(a, b)
    print(render(rows))
    bad = [row for row in rows if ORDER[row["verdict"]] < 2]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
