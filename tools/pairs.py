"""Alternating ledger pairs: is a change faster than its parent?

    python3 tools/pairs.py PARENT CHANGE N [RUN_ARGS...]

PARENT and CHANGE are two checkouts of this repository. Each of the N
pairs runs ``python3 ledger/run.py --out FILE RUN_ARGS...`` once in
each, the parent first in even pairs and the change first in odd ones,
so a drift of the host's speed hurts neither side. RUN_ARGS pass
through to ``run.py`` (``--workload scan_warm``, ``--seed 7``). The
``--out`` files land in ``ledger-pairs/`` under the working directory,
``a<i>.json`` for the parent and ``b<i>.json`` for the change.

A run's value is the median of its reps. Per workload and end-to-end
metric the summary prints, over the N runs of each side, the median
and quartiles, the delta of the medians as a share of the parent's
(worse is +), how many pairs the change won, the verdict
``ledger/compare.py`` gives the two lists of run values, and ``gain``
when the change wins at least nine pairs in ten and the medians differ
by more than the parent's inter-quartile range.

Stdlib only; exit 1 when any row's verdict is ``worse`` or
``unresolved``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from ledger.compare import verdict  # noqa: E402
from ledger.run import quartiles  # noqa: E402

OUT = Path("ledger-pairs")


def run_pairs(parent: Path, change: Path, n: int,
              run_args: list[str]) -> list[tuple[dict, dict]]:
    """Run *n* alternating pairs; each pair's two ``--out`` records."""
    OUT.mkdir(exist_ok=True)
    pairs = []
    for i in range(n):
        sides = [("a", parent), ("b", change)]
        for tag, checkout in sides if i % 2 == 0 else sides[::-1]:
            out = (OUT / f"{tag}{i}.json").resolve()
            print(f"pair {i + 1}/{n}: {tag} in {checkout}", flush=True)
            subprocess.run([sys.executable, "ledger/run.py", "--out",
                            str(out), *run_args], cwd=checkout,
                           stdout=subprocess.DEVNULL, check=False)
        pairs.append(tuple(json.loads((OUT / f"{tag}{i}.json").read_text())
                           for tag in "ab"))
    return pairs


def summarize(pairs: list[tuple[dict, dict]]) -> list[dict]:
    """One row per (workload, end-to-end metric) both sides of every
    pair measured: each side's run medians, their quartiles, the delta,
    the change's wins and ``compare.verdict`` of the two lists."""
    rows = []
    first_a = pairs[0][0]["workloads"]
    for workload, record in first_a.items():
        for name, metric in record["end_to_end"].items():
            try:
                runs = [[quartiles(side["workloads"][workload]
                                   ["end_to_end"][name]["values"])[1]
                         for side in pair] for pair in pairs]
            except KeyError:
                continue
            a = [pair[0] for pair in runs]
            b = [pair[1] for pair in runs]
            lower = metric["better"] == "lower"
            wins = sum(1 for x, y in runs if (y < x if lower else y > x))
            what, delta, _ = verdict(a, b, metric["better"], metric["bound"])
            a_q1, a_med, a_q3 = quartiles(a)
            rows.append({"workload": workload, "metric": name,
                         "unit": metric["unit"], "a": (a_q1, a_med, a_q3),
                         "b": quartiles(b), "delta": delta, "wins": wins,
                         "pairs": len(runs), "verdict": what,
                         "gain": (10 * wins >= 9 * len(runs)
                                  and -delta * a_med > a_q3 - a_q1)})
    return rows


def render(rows: list[dict]) -> str:
    lines = []
    for row in rows:
        (a_q1, a_med, a_q3), (b_q1, b_med, b_q3) = row["a"], row["b"]
        lines.append(
            f"{row['workload']:<15} {row['metric']:<13}"
            f" A {a_med:.4f} [{a_q1:.4f}, {a_q3:.4f}]"
            f"  B {b_med:.4f} [{b_q1:.4f}, {b_q3:.4f}] {row['unit']}"
            f"  delta {row['delta']:+.1%}"
            f"  wins {row['wins']}/{row['pairs']}  {row['verdict']}"
            + ("  gain" if row["gain"] else ""))
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or not argv[2].isdigit() or int(argv[2]) < 1:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    rows = summarize(run_pairs(parent, change, int(argv[2]), argv[3:]))
    print(render(rows))
    bad = [row for row in rows if row["verdict"] in ("worse", "unresolved")]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
