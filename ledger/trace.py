"""Tracing from outside the program: spans, wrappers, probes, call counts.

Nothing here edits ``src/``. A :class:`Recorder` keeps spans in memory
(``[name_id, start_ns, end_ns, parent]``), wraps public entry points of
the program's classes for the life of one traced rep, and is summarised
after the timed region has ended, so the only cost inside the region is
two clock reads and one list append per wrapped call. Wrap only entry
points called at most ~10^5 times per rep: a wrapper costs 1-4 us.

Wrappers go on the *class*, before the workload builds its engine:
``TieredBufferPool.__init__`` caches bound methods of its tracker and
placement policy (``_tracker_batch``, ``_placement_note``), which a
wrapper set on the instance afterwards would never see, and
``serving_pond`` builds its 36 engines inside ``measure_buckets`` where
the benchmark holds no instance at all.

The standalone probes call one layer's public function on fixed inputs
and report host nanoseconds per element (median of ``PROBE_REPEATS``).
"""

from __future__ import annotations

import cProfile
import functools
import json
import statistics
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

PROBE_REPEATS = 5

#: Root span names: set-up work and the timed region are summarised apart.
SETUP = "setup"
TIMED = "timed"


class NullRecorder:
    """The untraced lane: ``span`` costs one call, records nothing."""

    enabled = False
    _null = nullcontext()

    def span(self, name: str):
        return self._null


class Recorder:
    """In-memory span recorder plus the wrappers that feed it."""

    enabled = True

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        #: ``[name_id, start_ns, end_ns, parent_index]`` in start order.
        self.spans: list[list[int]] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, bool, object]] = []

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    @contextmanager
    def span(self, name: str):
        spans, stack = self.spans, self._stack
        record = [self._name_id(name), time.perf_counter_ns(), 0,
                  stack[-1] if stack else -1]
        stack.append(len(spans))
        spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            stack.pop()

    def wrap(self, owner, attr: str, name: str) -> None:
        """Record a span named *name* around every ``owner.attr`` call.

        *owner* is a class (the usual case, see the module docstring)
        or an instance. ``functools.wraps`` carries function attributes
        across — the pool reads ``note_accesses.content_blind`` off the
        bound method to pick its lane, so a bare wrapper would change
        the route.
        """
        func = getattr(owner, attr)
        had = attr in vars(owner)
        self._restore.append((owner, attr, had, vars(owner).get(attr)))
        nid = self._name_id(name)
        spans, stack, now = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            record = [nid, now(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                return func(*args, **kwargs)
            finally:
                record[2] = now()
                stack.pop()

        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._restore:
            owner, attr, had, original = self._restore.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- summaries ------------------------------------------------------

    def summary(self, root: str = TIMED) -> dict[str, dict[str, float]]:
        """Per-name ``busy_ms`` / ``self_ms`` / ``calls`` under *root*.

        Busy time counts a name's outermost spans only, so a function
        that re-enters itself is not counted twice; self time is busy
        time minus the part direct children cover.
        """
        spans = self.spans
        root_id = self._ids.get(root, -1)
        in_root = [False] * len(spans)
        child_ns = [0] * len(spans)
        nested = [False] * len(spans)
        for i, (nid, start, end, parent) in enumerate(spans):
            if parent < 0:
                in_root[i] = nid == root_id
                continue
            in_root[i] = in_root[parent]
            child_ns[parent] += end - start
            up = parent
            while up >= 0 and not nested[i]:
                nested[i] = spans[up][0] == nid
                up = spans[up][3]
        out: dict[str, dict[str, float]] = {}
        for i, (nid, start, end, parent) in enumerate(spans):
            if not in_root[i] or parent < 0:
                continue
            row = out.setdefault(
                self.names[nid],
                {"busy_ms": 0.0, "self_ms": 0.0, "calls": 0})
            row["calls"] += 1
            row["self_ms"] += (end - start - child_ns[i]) / 1e6
            if not nested[i]:
                row["busy_ms"] += (end - start) / 1e6
        return out

    def write(self, path: Path, workload: str) -> None:
        """Write the spans of the traced rep as compact JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "workload": workload,
            "columns": ["name", "start_ns", "end_ns", "parent"],
            "names": self.names,
            "spans": self.spans,
        }
        path.write_text(json.dumps(payload, separators=(",", ":")))


def flatten(summary: dict[str, dict[str, float]]) -> dict[str, float]:
    """``{"a.b": {"busy_ms": 1}}`` -> ``{"a.b.busy_ms": 1}``."""
    return {f"{name}.{key}": value
            for name, row in summary.items() for key, value in row.items()}


# -- call counter ---------------------------------------------------------


def count_python_calls(func) -> int:
    """Python-level function calls made while running ``func()``.

    Counted by ``cProfile`` (builtins excluded), so the number is a
    property of the route taken, not of the host: it repeats exactly
    for a fixed seed. The wall time of such a run means nothing.
    """
    profile = cProfile.Profile()
    profile.runcall(func)
    return sum(entry.callcount for entry in profile.getstats()
               if not isinstance(entry.code, str))


# -- probes ---------------------------------------------------------------


def _median_ns(func, repeats: int = PROBE_REPEATS) -> float:
    """Median host nanoseconds of ``func()`` over *repeats* calls."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        func()
        samples.append(time.perf_counter_ns() - start)
    return statistics.median(samples)


def probe_generator(make_blocks) -> float:
    """ns per generated access of ``list(make_blocks())``."""
    blocks: list = []

    def run() -> None:
        blocks[:] = make_blocks()

    return _median_ns(run, repeats=3) / sum(len(block) for block in blocks)


def probe_traces(blocks: list) -> dict[str, float]:
    """Segmentation cost and mean same-shape run length of *blocks*."""
    from repro.workloads import ShapeSegments

    accesses = sum(len(block) for block in blocks)
    segments = sum(len(block.segment_bounds()) - 1 for block in blocks)

    def bounds() -> None:
        for block in blocks:
            block.segment_bounds()

    def spans() -> None:
        cursor = ShapeSegments(blocks)
        while cursor.next_span(64) is not None:
            pass

    return {
        "workloads.traces.segment_bounds.ns_per_op":
            _median_ns(bounds, repeats=3) / accesses,
        "workloads.traces.shape_segments.ns_per_op":
            _median_ns(spans, repeats=3) / accesses,
        "workloads.traces.mean_run_len": accesses / segments,
    }


def probe_victim_batch(k: int = 64, rounds: int = 256) -> float:
    """ns per victim of ``LRUPolicy.victim_batch(k)`` on a full tier."""
    from repro.core.replacement import LRUPolicy

    def run() -> None:
        for _ in range(rounds):
            policy.victim_batch(k)

    samples = []
    for _ in range(PROBE_REPEATS):
        policy = LRUPolicy()
        policy.record_insert_batch(list(range(k * rounds)))
        samples.append(_median_ns(run, repeats=1))
    return statistics.median(samples) / (k * rounds)


def probe_events(events: int = 200_000, fanout: int = 8) -> float:
    """ns per event of ``Simulator.schedule`` + ``pop_due``.

    *fanout* wakeups share each instant, the shape the session
    scheduler produces with eight sessions.
    """
    from repro.sim.events import Simulator

    def run() -> None:
        sim = Simulator()
        for i in range(events):
            sim.schedule(float(i // fanout), i)
        while sim.pop_due():
            pass

    return _median_ns(run, repeats=3) / events


def probe_reserve_run(calls: int = 20_000) -> float:
    """ns per ``WaitQueue.reserve_run`` call, 8-session-shaped input:
    two tier segments per quantum of 64 accesses of 64 bytes."""
    from repro.sim.bandwidth import WaitQueue

    def run() -> None:
        queue = WaitQueue("probe", 64.0)
        now = 0.0
        for _ in range(calls):
            queue.reserve_run([now + 40.0, now + 90.0], 64, [24, 40])
            now += 100.0

    return _median_ns(run) / calls


def probe_ladder() -> dict[str, float]:
    """Exact-float ladder kernels on one-binade and crossing chains."""
    import numpy as np
    from repro.sim.ladder import chain_values, repeat_add

    n = 65_536
    vals = np.array([80.0, 190.0, 250.5])
    cls = (np.arange(n) % 3).astype(np.int64)
    out = np.empty(n)

    def chains() -> None:
        chain_values(2.0 ** 40, vals, cls, out)   # stays in one binade
        chain_values(1.0, vals, cls, out)         # crosses ~24 binades

    def repeats() -> None:
        for k in range(1_000):
            repeat_add(2.0 ** 40, 190.0, 4_096)
            repeat_add(float(k + 1), 190.0, 4_096)

    return {
        "sim.ladder.chain_values.ns_per_elem": _median_ns(chains) / (2 * n),
        "sim.ladder.repeat_add.ns_per_call": _median_ns(repeats) / 2_000,
    }


def probe_harness(scratch: Path, jobs: int) -> dict[str, float]:
    """Process fan-out cost per cell and result-store round-trip."""
    from repro.harness import ResultStore, Scenario, Sweep, run_sweep

    cells = 16
    sweep = Sweep(name="probe",
                  base=Scenario(experiment="debug.echo", seed=0),
                  axes={"workload.i": tuple(range(cells))})
    spawn_ns = _median_ns(lambda: run_sweep(sweep, jobs=jobs), repeats=3)

    store = ResultStore(scratch / "probe-store")
    scenarios = [cell.scenario for cell in sweep.cells()]
    result = {"value": 1.0, "rows": list(range(64))}
    put_ns = _median_ns(
        lambda: [store.put(s, result) for s in scenarios])
    get_ns = _median_ns(
        lambda: [store.get(s) for s in scenarios])
    return {
        "harness.spawn_ms_per_cell": spawn_ns / cells / 1e6,
        "harness.store.put_us": put_ns / cells / 1e3,
        "harness.store.get_us": get_ns / cells / 1e3,
    }
