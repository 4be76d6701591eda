"""Reachability census: which code under ``src/repro/`` the experiments run.

One ``sys.setprofile`` hook, installed before the first ``repro``
import, records every Python function call while three entry points run
in this process:

* every cell of every spec under ``specs/``, through ``run_scenario``;
* the five pool ledger workloads at 1/20 size, seed 11;
* the eight ``examples/`` scripts, with a bare ``argv``.

A module counts as reached when any of its functions ran; a module that
defines no function counts as reached when it was imported. The
functions that never ran are listed for information. The exit status is
1 when a whole module outside ``EXEMPT`` was never reached.

Run from anywhere, stdlib only (the program itself needs numpy)::

    python3 tools/reach_census.py
"""

from __future__ import annotations

import contextlib
import io
import os
import runpy
import sys
import time
from pathlib import Path
from types import CodeType

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
PACKAGE = SRC / "repro"

POOL_WORKLOADS = ("scan_warm", "oltp_point", "fault_storm",
                  "sessions_mixed", "serving_pond")
LEDGER_SEED = 11
LEDGER_SCALE = 0.05

#: Modules (relative to ``src/repro/``) whose callers this census does
#: not run; a trailing ``/`` exempts a whole package.
EXEMPT = {
    "__main__.py": "the `python -m repro` entry; it only calls cli.main",
    "version.py": "the package version string behind repro.__version__",
    "cli.py": "the command line; `make sweep` reaches it in forked children",
    "harness/": "sweep fan-out, store and gates run in forked children",
    "sim/trace.py": "the trace sinks behind quickstart's --trace-out",
    "core/frame.py": "the frame_of view the tests and the oracle read",
}

#: Code objects that are not functions a caller chooses to run.
_INLINE = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}
_CO_NEWLOCALS = 0x2


def _functions(code: CodeType):
    """Every function code object nested in *code*, depth first."""
    for const in code.co_consts:
        if isinstance(const, CodeType):
            if const.co_flags & _CO_NEWLOCALS and \
                    const.co_name not in _INLINE:
                yield const
            yield from _functions(const)


def _key(code: CodeType) -> tuple[int, str]:
    return code.co_firstlineno, code.co_name


def _name(code: CodeType) -> str:
    return getattr(code, "co_qualname", code.co_name)


def _exemption(module: str) -> str | None:
    for entry, reason in EXEMPT.items():
        if module == entry or (entry.endswith("/")
                               and module.startswith(entry)):
            return reason
    return None


@contextlib.contextmanager
def _quiet():
    """Swallow what the examples print."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        yield


def _run_specs() -> int:
    from repro.harness.experiments import run_scenario
    from repro.harness.scenario import load_sweep

    cells = 0
    for spec in sorted((REPO / "specs").glob("*.json")):
        for cell in load_sweep(spec).cells():
            run_scenario(cell.scenario)
            cells += 1
    return cells


def _run_ledger() -> int:
    from ledger import trace as tracing
    from ledger.workloads import WORKLOADS

    for name in POOL_WORKLOADS:
        workload = WORKLOADS[name](LEDGER_SEED, LEDGER_SCALE,
                                   tracing.NullRecorder())
        workload.run()
        workload.outcome()
    return len(POOL_WORKLOADS)


def _run_examples() -> int:
    scripts = sorted((REPO / "examples").glob("*.py"))
    argv = sys.argv
    try:
        for script in scripts:
            sys.argv = [str(script)]
            runpy.run_path(str(script), run_name="__main__")
    finally:
        sys.argv = argv
    return len(scripts)


def census() -> tuple[dict[str, list[CodeType]], dict[str, list[CodeType]],
                      list[str]]:
    """Run every entry point under the hook.

    Returns ``(defined, ran, log)``: the function code objects each
    module defines and the ones that ran, keyed by the module's path
    relative to ``src/repro/``, plus one log line per entry point.
    """
    sys.path[:0] = [str(REPO), str(SRC)]
    seen: set[CodeType] = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    log = []
    sys.setprofile(hook)
    try:
        for label, entry in (("spec cells", _run_specs),
                             ("ledger workloads", _run_ledger),
                             ("examples", _run_examples)):
            start = time.perf_counter()
            with _quiet():
                count = entry()
            log.append(f"{count:4d} {label} in "
                       f"{time.perf_counter() - start:.1f} s")
    finally:
        sys.setprofile(None)

    called: dict[str, set[tuple[int, str]]] = {}
    for code in seen:
        path = os.path.realpath(code.co_filename)
        called.setdefault(path, set()).add(_key(code))

    defined: dict[str, list[CodeType]] = {}
    ran: dict[str, list[CodeType]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        top = compile(path.read_text(), str(path), "exec")
        functions = list(_functions(top))
        keys = called.get(os.path.realpath(path), set())
        defined[module] = functions
        ran[module] = [code for code in functions if _key(code) in keys]
    return defined, ran, log


def main() -> int:
    defined, ran, log = census()
    imported = {Path(module.__file__).resolve()
                for module in list(sys.modules.values())
                if getattr(module, "__file__", None)}

    unreached, exempt = [], []
    for module, functions in defined.items():
        if functions:
            reached = bool(ran[module])
        else:
            reached = (PACKAGE / module).resolve() in imported
        if reached:
            continue
        reason = _exemption(module)
        if reason is None:
            unreached.append(module)
        else:
            exempt.append(f"{module} ({reason})")

    total = sum(len(functions) for functions in defined.values())
    never = sum(len(functions) - len(ran[module])
                for module, functions in defined.items())
    print("reach census over src/repro/:")
    for line in log:
        print("  " + line)
    print(f"  {len(defined)} modules, {total} functions, "
          f"{never} never called")
    print("functions never called (for information):")
    for module, functions in defined.items():
        hit = {_key(code) for code in ran[module]}
        for code in functions:
            if _key(code) not in hit:
                print(f"  {module}:{code.co_firstlineno} {_name(code)}")
    for line in exempt:
        print(f"exempt, unreached: {line}")
    if unreached:
        print("unreached modules: " + ", ".join(unreached))
        return 1
    print("unreached modules: none outside the exemptions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
