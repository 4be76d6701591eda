"""repro.harness — declarative scenarios, parallel sweeps, gating.

The harness is the one way to run an experiment. It turns a
configuration grid into data: a
:class:`~repro.harness.scenario.Scenario` names a registered
experiment kernel plus its topology / workload / policy parameters and
a seed; a :class:`~repro.harness.scenario.Sweep` expands parameter
axes into a grid of scenario cells with deterministic per-cell seeds.

Cells execute through :func:`~repro.harness.executor.run_sweep` —
fanned across worker processes, each cell in its own
:class:`~repro.sim.context.SimContext` (the PR-1 one-clock invariant),
with per-cell timeouts and crash isolation. Results are assembled in
cell order, cached content-addressed in a
:class:`~repro.harness.store.ResultStore`, and checked against
baseline *shape* invariants by :mod:`repro.harness.gate`.

See ``docs/harness.md`` for the spec schema and CLI usage
(``python -m repro sweep specs/e7_distribution.json --jobs 4 --gate``).
"""

from .executor import CellResult, SweepReport, run_sweep
from .gate import GateReport, check_gate, load_baseline
from .scenario import Scenario, Sweep, derive_seed, load_sweep
from .store import ResultStore

__all__ = [
    "CellResult",
    "GateReport",
    "ResultStore",
    "Scenario",
    "Sweep",
    "SweepReport",
    "check_gate",
    "derive_seed",
    "load_baseline",
    "load_sweep",
    "run_sweep",
]
