"""Command line: ``repro sweep`` runs the gated experiment specs.

Every experiment is a declarative spec under ``specs/`` run through
the ``repro.harness`` subsystem::

    repro sweep specs/e7_distribution.json --jobs 4 --gate
    repro sweep specs/*.json --out-dir results/sweeps

``sweep`` expands a scenario spec into a grid of cells, fans them
across worker processes (each cell in its own SimContext), serves
unchanged cells from the content-addressed result store, and — with
``--gate`` — asserts the baseline's shape invariants, exiting nonzero
on regression. See ``docs/harness.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import ConfigError

#: What a command other than ``sweep`` is told.
USAGE = ("usage: repro sweep specs/<file>.json [--jobs N] [--gate]\n"
         "every experiment is a spec under specs/; `repro sweep --help`"
         " lists the options")


def sweep_main(argv: list[str]) -> int:
    """The sweep command; returns a process exit code.

    Exit codes: 0 all cells ok (and gate passed, if requested);
    1 failed/timed-out cells or a gate regression; 2 usage errors.
    """
    from .harness.executor import run_sweep
    from .harness.gate import check_gate, load_baseline
    from .harness.scenario import load_sweep
    from .harness.store import DEFAULT_STORE_DIR, ResultStore

    parser = argparse.ArgumentParser(
        prog="repro sweep",
        description="Expand scenario sweep specs, execute the cells in"
                    " parallel, cache results, and optionally gate"
                    " them against baseline shape invariants.",
    )
    parser.add_argument("specs", nargs="+", metavar="SPEC",
                        help="sweep spec file(s), JSON")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes (default: cpu count)")
    parser.add_argument("--timeout", type=float, default=600.0,
                        metavar="SECONDS",
                        help="per-cell wall-time limit (default 600)")
    parser.add_argument("--gate", action="store_true",
                        help="check the sweep's baseline invariants;"
                             " exit 1 on regression")
    parser.add_argument("--baseline", metavar="PATH",
                        help="baseline file overriding the spec's"
                             " 'gate' entry (implies --gate)")
    parser.add_argument("--store", metavar="DIR",
                        default=os.environ.get("REPRO_STORE_DIR",
                                               DEFAULT_STORE_DIR),
                        help="content-addressed result store"
                             " (default: %(default)s;"
                             " env REPRO_STORE_DIR)")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore stored results; re-simulate every"
                             " cell (fresh results are still stored)")
    parser.add_argument("--out-dir", metavar="DIR",
                        default="results/sweeps",
                        help="where sweep reports are written"
                             " (default: %(default)s)")
    parser.add_argument("--out", metavar="PATH",
                        help="explicit report path (single spec only)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-cell progress lines")
    args = parser.parse_args(argv)

    if args.out and len(args.specs) > 1:
        print("error: --out works with a single spec;"
              " use --out-dir for several", file=sys.stderr)
        return 2

    store = ResultStore(args.store)
    progress = None if args.quiet else (lambda line: print(line))
    gating = args.gate or args.baseline is not None
    exit_code = 0

    for spec_arg in args.specs:
        spec_path = Path(spec_arg)
        try:
            sweep = load_sweep(spec_path)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

        print(f"== sweep {sweep.name}: {len(sweep)} cells"
              f" from {spec_path} ==")
        report = run_sweep(
            sweep,
            jobs=args.jobs,
            timeout_s=args.timeout,
            store=store,
            use_cache=not args.no_cache,
            progress=progress,
        )

        out_path = Path(args.out) if args.out else (
            Path(args.out_dir) / f"{sweep.name}.json")
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True)
            + "\n")

        counts = ", ".join(
            f"{n} {status}" for status, n in sorted(report.counts.items()))
        print(f"[{sweep.name}] {len(report.cells)} cells: {counts}"
              f" in {report.elapsed_s:.2f}s -> {out_path}")
        if report.cells and report.simulated == 0:
            print(f"[{sweep.name}] all {len(report.cells)} cells served"
                  " from cache; zero re-simulated")
        if not report.ok:
            for cell in report.cells:
                if not cell.ok:
                    print(f"[{sweep.name}] FAILED"
                          f" {cell.cell_id or '(single cell)'}:"
                          f" {cell.error}", file=sys.stderr)
            exit_code = 1

        if gating:
            try:
                baseline = _resolve_baseline(args.baseline, sweep,
                                             spec_path)
            except ConfigError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            gate_report = check_gate(report.cells, baseline)
            for outcome in gate_report.outcomes:
                print(f"[{sweep.name}] {outcome}")
            print(f"[{sweep.name}] {gate_report.summary()}")
            if not gate_report.ok:
                exit_code = 1
    return exit_code


def _resolve_baseline(override: str | None, sweep, spec_path: Path):
    """The baseline dict for a gated sweep.

    Precedence: ``--baseline PATH``, then the spec's ``gate`` entry —
    an inline invariants object, or a path resolved relative to the
    spec file's directory.
    """
    from .harness.gate import load_baseline

    if override is not None:
        return load_baseline(override)
    if sweep.gate is None:
        raise ConfigError(
            f"sweep {sweep.name!r} has no 'gate' entry in its spec;"
            " pass --baseline PATH"
        )
    if isinstance(sweep.gate, dict):
        return dict(sweep.gate)
    gate_path = Path(sweep.gate)
    if not gate_path.is_absolute():
        gate_path = spec_path.parent / gate_path
    return load_baseline(gate_path)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv in (["-h"], ["--help"]):
        print(USAGE)
        return 0
    if not argv or argv[0] != "sweep":
        command = f"unknown command {argv[0]!r}" if argv else "no command"
        print(f"error: {command}\n{USAGE}", file=sys.stderr)
        return 2
    try:
        return sweep_main(argv[1:])
    except BrokenPipeError:
        # stdout went away (e.g. `repro sweep ... | head`); exit quietly
        # without a traceback, reopening stdout so the interpreter's
        # shutdown flush cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


def console_main() -> None:
    """The installed ``repro`` console script."""
    raise SystemExit(main())
