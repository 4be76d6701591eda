"""Declarative scenario and sweep specifications.

A :class:`Scenario` is the unit of simulation the harness schedules: a
registered experiment kernel (``experiment``), three parameter groups
(``topology``, ``workload``, ``policy``) and a ``seed``. It is plain
data — serializable to/from JSON — so the full configuration
grid of an experiment lives in a spec file, not in benchmark code.

A :class:`Sweep` is a base scenario plus named *axes*: dotted parameter
paths (``workload.remote_fraction``) mapped to value lists. Expansion
takes the cartesian product of the axes, in spec order, yielding one
:class:`Cell` per combination. Each cell gets a deterministic seed
derived from the base seed and the cell's identity
(:func:`derive_seed`), so results are reproducible regardless of how
many worker processes execute the grid — unless the sweep sets
``"per_cell_seeds": false``, in which case every cell shares the base
seed (required when cells are *compared* against each other and must
therefore replay the identical workload, e.g. the E2 policy sweep).
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Iterator, Mapping

from ..errors import ConfigError

#: Bump when result semantics change; part of every content hash, so a
#: version bump invalidates the whole result cache at once.
HARNESS_VERSION = 1

#: Scenario sections a sweep axis may address.
PARAM_GROUPS = ("topology", "workload", "policy")


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace variance.

    This is the byte representation everything content-addressed hangs
    off (scenario hashes, stored results, determinism checks).
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def derive_seed(base_seed: int, cell_id: str) -> int:
    """Deterministic per-cell seed: stable across processes and runs.

    Uses SHA-256 over ``"<base_seed>|<cell_id>"`` (never Python's
    randomized ``hash``), truncated to 63 bits so it stays a friendly
    non-negative int for every RNG in the tree.
    """
    digest = hashlib.sha256(f"{base_seed}|{cell_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class Scenario:
    """One fully specified simulation configuration."""

    experiment: str
    topology: Mapping[str, Any] = field(default_factory=dict)
    workload: Mapping[str, Any] = field(default_factory=dict)
    policy: Mapping[str, Any] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.experiment:
            raise ConfigError("scenario needs an experiment name")
        if not isinstance(self.seed, int):
            raise ConfigError(f"seed must be an int, got {self.seed!r}")

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "topology": dict(self.topology),
            "workload": dict(self.workload),
            "policy": dict(self.policy),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        extra = set(data) - {"experiment", "topology", "workload",
                             "policy", "seed"}
        if extra:
            raise ConfigError(f"unknown scenario keys: {sorted(extra)}")
        return cls(
            experiment=data.get("experiment", ""),
            topology=dict(data.get("topology", {})),
            workload=dict(data.get("workload", {})),
            policy=dict(data.get("policy", {})),
            seed=data.get("seed", 0),
        )

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return cls.from_dict(json.loads(text))

    # -- identity ----------------------------------------------------------

    def content_hash(self) -> str:
        """SHA-256 over the canonical scenario + harness version.

        Two scenarios hash equal iff they would simulate the same
        thing; this is the result-store key.
        """
        payload = canonical_json(
            {"scenario": self.to_dict(), "harness_version": HARNESS_VERSION}
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    # -- parameter overrides ----------------------------------------------

    def with_params(self, assignments: Mapping[str, Any]) -> "Scenario":
        """A copy with dotted-path *assignments* applied.

        Paths address the parameter groups (``workload.theta``,
        ``topology.nodes``, nested ``policy.tier.kind``) or the
        top-level ``seed`` / ``experiment``.
        """
        groups = {g: dict(getattr(self, g)) for g in PARAM_GROUPS}
        scalars: dict[str, Any] = {}
        for path, value in assignments.items():
            head, _, rest = path.partition(".")
            if head in PARAM_GROUPS:
                if not rest:
                    raise ConfigError(
                        f"axis {path!r} must name a parameter inside"
                        f" {head!r} (e.g. {head}.some_param)"
                    )
                _set_dotted(groups[head], rest, value)
            elif head in ("seed", "experiment") and not rest:
                scalars[head] = value
            else:
                raise ConfigError(
                    f"axis {path!r} is outside the scenario schema;"
                    f" use one of {PARAM_GROUPS + ('seed', 'experiment')}"
                )
        return replace(self, **groups, **scalars)


def _set_dotted(tree: dict, path: str, value: Any) -> None:
    head, _, rest = path.partition(".")
    if not rest:
        tree[head] = value
        return
    node = tree.setdefault(head, {})
    if not isinstance(node, dict):
        raise ConfigError(
            f"cannot descend into non-table parameter {head!r}"
        )
    tree[head] = dict(node)
    _set_dotted(tree[head], rest, value)


@dataclass(frozen=True)
class Cell:
    """One point of an expanded sweep grid."""

    index: int
    cell_id: str
    assignments: Mapping[str, Any]
    scenario: Scenario


@dataclass(frozen=True)
class Sweep:
    """A base scenario plus parameter axes to expand."""

    name: str
    base: Scenario
    axes: Mapping[str, tuple]
    per_cell_seeds: bool = True
    gate: Any = None  # baseline path (str) or inline invariant dict

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("sweep needs a name")
        for axis, values in self.axes.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise ConfigError(
                    f"axis {axis!r} needs a non-empty value list"
                )

    # -- expansion ---------------------------------------------------------

    def cells(self) -> list[Cell]:
        """Expand the grid: cartesian product of axes, in spec order."""
        return list(self._iter_cells())

    def _iter_cells(self) -> Iterator[Cell]:
        axes = [(axis, tuple(values)) for axis, values in self.axes.items()]
        names = [axis for axis, _ in axes]
        for index, combo in enumerate(
            itertools.product(*(values for _, values in axes))
        ):
            assignments = dict(zip(names, combo))
            cell_id = cell_id_for(assignments)
            scenario = self.base.with_params(assignments)
            if self.per_cell_seeds and "seed" not in assignments:
                scenario = replace(
                    scenario, seed=derive_seed(self.base.seed, cell_id)
                )
            yield Cell(index=index, cell_id=cell_id,
                       assignments=assignments, scenario=scenario)

    def __len__(self) -> int:
        total = 1
        for values in self.axes.values():
            total *= len(values)
        return total

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        data: dict[str, Any] = {
            "name": self.name,
            "base": self.base.to_dict(),
            "axes": {axis: list(vals) for axis, vals in self.axes.items()},
            "per_cell_seeds": self.per_cell_seeds,
        }
        if self.gate is not None:
            data["gate"] = self.gate
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Sweep":
        extra = set(data) - {"name", "base", "axes", "per_cell_seeds",
                             "gate"}
        if extra:
            raise ConfigError(f"unknown sweep keys: {sorted(extra)}")
        if "base" not in data:
            raise ConfigError("sweep spec needs a 'base' scenario table")
        axes = {
            axis: tuple(values)
            for axis, values in dict(data.get("axes", {})).items()
        }
        return cls(
            name=data.get("name", ""),
            base=Scenario.from_dict(data["base"]),
            axes=axes,
            per_cell_seeds=bool(data.get("per_cell_seeds", True)),
            gate=data.get("gate"),
        )


def cell_id_for(assignments: Mapping[str, Any]) -> str:
    """Stable cell identity: sorted ``axis=value`` pairs.

    Values are canonical JSON so ``0.1`` and ``"0.1"`` stay distinct
    and floats format identically everywhere.
    """
    return ",".join(
        f"{axis}={canonical_json(value)}"
        for axis, value in sorted(assignments.items())
    )


# ---------------------------------------------------------------------------
# Spec files: JSON only.
# ---------------------------------------------------------------------------

def load_sweep(path: str | Path) -> Sweep:
    """Load a sweep spec from a JSON file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read sweep spec {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"sweep spec {path} is not valid JSON (specs are JSON"
            f" only): {exc}") from exc
    return Sweep.from_dict(data)
