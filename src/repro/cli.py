"""Command-line experiment runner and sweep harness.

``python -m repro`` (or the installed ``repro`` script) runs paper
experiments and prints the paper-vs-measured tables::

    repro                 # run everything
    repro e3 e7           # run selected experiments
    repro --list          # one line per experiment, with descriptions

Declarative sweeps (the ``repro.harness`` subsystem)::

    repro sweep specs/e7_distribution.json --jobs 4 --gate
    repro sweep specs/*.json --out-dir results/sweeps

``sweep`` expands a scenario spec into a grid of cells, fans them
across worker processes (each cell in its own SimContext), serves
unchanged cells from the content-addressed result store, and — with
``--gate`` — asserts the baseline's shape invariants, exiting nonzero
on regression. See ``docs/harness.md``.

Observability (the SimContext spine)::

    repro e1 --trace-out run.trace.json   # chrome://tracing
    repro e1 --trace-out run.jsonl        # JSON lines
    repro e1 --metrics-out metrics.json   # metrics snapshot

Benchmark discovery: experiment implementations live in
``benchmarks/`` next to this repository's ``src/``. For installed
packages (no repository layout around the module) point the CLI at a
checkout's benchmarks with ``--bench-dir`` or ``REPRO_BENCH_DIR``.
"""

from __future__ import annotations

import argparse
import ast
import importlib.util
import json
import os
import sys
import time
from pathlib import Path

from .errors import ConfigError
from .metrics.registry import MetricsRegistry
from .metrics.report import latency_breakdown
from .sim.context import set_ambient
from .sim.trace import sink_for_path

#: Environment variable naming the benchmarks directory explicitly.
BENCH_DIR_ENV = "REPRO_BENCH_DIR"

#: Experiment id -> benchmark module filename.
EXPERIMENTS: dict[str, str] = {
    "e1": "bench_e1_latency_bandwidth.py",
    "e2": "bench_e2_tpp_tiering.py",
    "e3": "bench_e3_pond_population.py",
    "e4": "bench_e4_cxl_vs_rdma.py",
    "e5": "bench_e5_memory_expansion.py",
    "e6": "bench_e6_pooling_elasticity.py",
    "e7": "bench_e7_sharing_vs_scaleout.py",
    "e8": "bench_e8_ndp_offload.py",
    "e9": "bench_e9_heterogeneous.py",
    "e10": "bench_e10_ras_failures.py",
    "f1": "bench_f1_coherency_domain.py",
    "a1": "bench_a1_ablations.py",
    "a5": "bench_a2_index_placement.py",
    "a6": "bench_a3_autoscale.py",
    "a7": "bench_a4_oltp_mechanisms.py",
    "a8": "bench_a5_morsel_scheduling.py",
    "a9": "bench_a6_memory_diversity.py",
    "a11": "bench_a8_columnar_cxl.py",
}


def find_benchmarks_dir(start: Path | None = None,
                        explicit: str | Path | None = None) -> Path | None:
    """Locate the repository's benchmarks/ directory.

    Resolution order: *explicit* (the ``--bench-dir`` flag), the
    ``REPRO_BENCH_DIR`` environment variable, then upward searches
    from this file (source checkouts) and from the current working
    directory. Explicit locations that don't contain the benchmarks
    return None rather than silently falling through — the caller
    reports what was wrong.
    """
    if explicit is None:
        explicit = os.environ.get(BENCH_DIR_ENV) or None
    if explicit is not None:
        candidate = Path(explicit).expanduser().resolve()
        return candidate if _is_bench_dir(candidate) else None
    candidates = []
    here = Path(__file__).resolve()
    candidates.extend(parent / "benchmarks" for parent in here.parents)
    cwd = (start or Path.cwd()).resolve()
    candidates.append(cwd / "benchmarks")
    candidates.extend(parent / "benchmarks" for parent in cwd.parents)
    for candidate in candidates:
        if _is_bench_dir(candidate):
            return candidate
    return None


def _is_bench_dir(path: Path) -> bool:
    return (path / EXPERIMENTS["e1"]).is_file()


def _bench_dir_error(explicit: str | None) -> str:
    """A clear, actionable discovery failure message."""
    if explicit is not None:
        return (
            f"error: --bench-dir {explicit!r} does not contain the"
            f" benchmark modules (expected {EXPERIMENTS['e1']} inside"
            " it)"
        )
    env = os.environ.get(BENCH_DIR_ENV)
    if env:
        return (
            f"error: {BENCH_DIR_ENV}={env!r} does not contain the"
            f" benchmark modules (expected {EXPERIMENTS['e1']} inside"
            " it)"
        )
    return (
        "error: could not locate the benchmarks/ directory by searching"
        f" upward from {Path(__file__).resolve().parent} and"
        f" {Path.cwd()}; run from a repository checkout, or point the"
        f" CLI at one with --bench-dir PATH or {BENCH_DIR_ENV}=PATH"
    )


def experiment_description(bench_dir: Path, exp_id: str) -> str:
    """First docstring line of a benchmark module (without importing it)."""
    path = bench_dir / EXPERIMENTS[exp_id]
    try:
        tree = ast.parse(path.read_text())
    except (OSError, SyntaxError):
        return ""
    doc = ast.get_docstring(tree) or ""
    return doc.splitlines()[0].strip() if doc else ""


def load_experiment(bench_dir: Path, exp_id: str):
    """Import a benchmark module and return its run_experiment."""
    filename = EXPERIMENTS[exp_id]
    path = bench_dir / filename
    spec = importlib.util.spec_from_file_location(
        f"repro_bench_{exp_id}", path
    )
    if spec is None or spec.loader is None:
        raise ImportError(f"cannot load {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.run_experiment


# ---------------------------------------------------------------------------
# repro [ids...] — the classic experiment runner.
# ---------------------------------------------------------------------------

def run_main(argv: list[str]) -> int:
    """The experiment-runner command; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run the paper-reproduction experiments"
                    " (use 'repro sweep' for declarative sweeps).",
    )
    parser.add_argument("experiments", nargs="*",
                        help="experiment ids (default: all)")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments and exit")
    parser.add_argument("--bench-dir", metavar="PATH",
                        help="directory containing the bench_*.py"
                             f" modules (default: autodetect;"
                             f" env {BENCH_DIR_ENV})")
    parser.add_argument("--trace-out", metavar="PATH",
                        help="record a virtual-time trace of the run"
                             " (.jsonl = JSON lines, else Chrome"
                             " trace-event JSON for chrome://tracing)")
    parser.add_argument("--metrics-out", metavar="PATH",
                        help="write the hierarchical metrics snapshot"
                             " as JSON and print a latency breakdown")
    args = parser.parse_args(argv)

    bench_dir = find_benchmarks_dir(explicit=args.bench_dir)

    if args.list:
        for exp_id, filename in EXPERIMENTS.items():
            description = (
                experiment_description(bench_dir, exp_id)
                if bench_dir else filename
            )
            print(f"  {exp_id:<4} {description or filename}")
        return 0

    if bench_dir is None:
        print(_bench_dir_error(args.bench_dir), file=sys.stderr)
        return 2

    selected = args.experiments or list(EXPERIMENTS)
    unknown = [e for e in selected if e not in EXPERIMENTS]
    if unknown:
        print(f"error: unknown experiments {unknown};"
              f" choose from {list(EXPERIMENTS)}", file=sys.stderr)
        return 2

    # Fail on unwritable output paths now, not after the experiments
    # have run (the Chrome sink only opens its file on close).
    for out in (args.trace_out, args.metrics_out):
        if out is None:
            continue
        parent = Path(out).resolve().parent
        if not parent.is_dir():
            print(f"error: cannot write {out}:"
                  f" no such directory {parent}", file=sys.stderr)
            return 2

    # Install the ambient instrumentation spine for the run: every
    # SimContext created without an explicit trace/metrics (i.e. every
    # engine the experiments build) picks these up.
    sink = sink_for_path(args.trace_out) if args.trace_out else None
    metrics = MetricsRegistry() if args.metrics_out else None
    previous = set_ambient(trace=sink, metrics=metrics)
    try:
        for exp_id in selected:
            run = load_experiment(bench_dir, exp_id)
            started = time.time()
            run(show=True)
            print(f"[{exp_id} done in {time.time() - started:.1f}s]")
    finally:
        set_ambient(*previous)
        if sink is not None:
            sink.close()
            print(f"[trace written to {args.trace_out}]")
        if metrics is not None:
            snapshot = metrics.snapshot()
            Path(args.metrics_out).write_text(
                json.dumps(snapshot, indent=2, sort_keys=True,
                           default=str) + "\n"
            )
            latency_breakdown(snapshot).show()
            print(f"[metrics written to {args.metrics_out}]")
    return 0


# ---------------------------------------------------------------------------
# repro sweep <spec>... — the declarative harness.
# ---------------------------------------------------------------------------

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
                        help="sweep spec file(s), .json or .toml")
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
    try:
        if argv and argv[0] == "sweep":
            return sweep_main(argv[1:])
        return run_main(argv)
    except BrokenPipeError:
        # stdout went away (e.g. `repro --list | head`); exit quietly
        # without a traceback, reopening stdout so the interpreter's
        # shutdown flush cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


def console_main() -> None:
    """The installed ``repro`` console script."""
    raise SystemExit(main())
