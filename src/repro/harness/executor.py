"""Parallel sweep execution with crash isolation and a result cache.

:func:`run_sweep` fans the cells of a :class:`~repro.harness.scenario.Sweep`
across worker processes — one process per cell, at most ``jobs`` in
flight. Per-process execution is what makes the guarantees cheap:

* **one clock per cell** — each worker builds a fresh
  :class:`~repro.sim.context.SimContext`, so the PR-1 invariant holds
  by construction and cells cannot observe each other's virtual time;
* **crash isolation** — a worker that dies (segfault, ``os._exit``,
  OOM-kill) marks *its* cell failed; the sweep and every other cell
  proceed;
* **per-cell timeout** — a cell exceeding ``timeout_s`` of wall time
  is terminated and marked ``timeout``.

Workers are forked together, up to ``_FORK_BATCH`` at a time, and each
waits for its scenario until a slot frees. A fork makes the parent's
pages copy-on-write, so the parent's next touch of them faults; forked
one cell at a time, every cell cost the parent such a burst, spread over
the sweep. Forked together, the burst comes once per batch.

Determinism: cell seeds are derived before scheduling
(:func:`~repro.harness.scenario.derive_seed`), workers share no state,
and results are assembled in cell order — so ``--jobs 4`` produces
byte-identical per-cell results to ``--jobs 1``.

When a :class:`~repro.harness.store.ResultStore` is supplied, cells
whose scenario hash is already stored are served from cache (status
``cached``) without spawning a worker, and fresh results are written
back for the next run.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from .experiments import run_scenario
from .scenario import Cell, Scenario, Sweep, canonical_json
from .store import ResultStore

#: Cell status values, in the order they are tried.
STATUS_CACHED = "cached"
STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_TIMEOUT = "timeout"

_POLL_INTERVAL_S = 0.005
_FORK_BATCH = 16


def _cell_worker(conn, parent_ends: list) -> None:
    """Worker entry point: wait for a scenario, run it, send
    (status, payload).

    ``parent_ends`` are the parent's ends of every open cell pipe, this
    one's included, which a forked worker inherits. Closing them leaves
    the parent the only holder, so a worker still waiting sees EOF and
    exits if the parent dies.
    """
    for end in parent_ends:
        end.close()
    try:
        scenario_dict = conn.recv()
    except (EOFError, OSError):  # the sweep ended before this cell ran
        conn.close()
        return
    try:
        result = run_scenario(Scenario.from_dict(scenario_dict))
        message = (STATUS_OK, result)
    except BaseException as exc:  # a cell may raise anything
        message = (STATUS_FAILED, f"{type(exc).__name__}: {exc}")
    try:
        conn.send(message)
    except (BrokenPipeError, OSError):  # parent gave up on us
        pass
    finally:
        conn.close()


@dataclass
class CellResult:
    """Outcome of one sweep cell."""

    index: int
    cell_id: str
    assignments: Mapping[str, Any]
    scenario: dict
    status: str
    result: dict | None = None
    error: str | None = None
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status in (STATUS_OK, STATUS_CACHED)

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "cell_id": self.cell_id,
            "assignments": dict(self.assignments),
            "scenario": self.scenario,
            "status": self.status,
            "result": self.result,
            "error": self.error,
            "elapsed_s": round(self.elapsed_s, 6),
        }


@dataclass
class SweepReport:
    """Ordered cell results plus sweep-level accounting."""

    name: str
    jobs: int
    cells: list[CellResult] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for cell in self.cells:
            counts[cell.status] = counts.get(cell.status, 0) + 1
        return counts

    @property
    def ok(self) -> bool:
        return all(cell.ok for cell in self.cells)

    @property
    def simulated(self) -> int:
        """Cells that actually ran (everything but cache hits)."""
        return sum(1 for c in self.cells if c.status != STATUS_CACHED)

    @property
    def cached(self) -> int:
        return sum(1 for c in self.cells if c.status == STATUS_CACHED)

    def results_canonical(self) -> str:
        """Canonical JSON of per-cell results only (no wall times).

        This is the byte string two runs of the same sweep must agree
        on regardless of ``jobs`` or cache state.
        """
        return canonical_json([
            {"cell_id": c.cell_id, "result": c.result}
            for c in self.cells
        ])

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "jobs": self.jobs,
            "counts": self.counts,
            "elapsed_s": round(self.elapsed_s, 6),
            "cells": [cell.to_dict() for cell in self.cells],
        }


@dataclass
class _Running:
    cell: Cell
    process: multiprocessing.process.BaseProcess
    conn: Any
    started: float
    deadline: float


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


def run_sweep(
    sweep: Sweep,
    jobs: int | None = None,
    timeout_s: float = 600.0,
    store: ResultStore | None = None,
    use_cache: bool = True,
    progress: Callable[[str], None] | None = None,
) -> SweepReport:
    """Execute every cell of *sweep*; never raises for cell failures.

    ``jobs`` defaults to :func:`os.cpu_count`. Results come back in
    cell order whatever the completion order was.
    """
    jobs = max(1, int(jobs or os.cpu_count() or 1))
    started = time.monotonic()
    cells = sweep.cells()
    report = SweepReport(name=sweep.name, jobs=jobs)
    say = progress or (lambda message: None)

    slots: list[CellResult | None] = [None] * len(cells)
    pending: deque[Cell] = deque()
    for cell in cells:
        cached = store.get(cell.scenario) if (store and use_cache) else None
        if cached is not None:
            slots[cell.index] = CellResult(
                index=cell.index, cell_id=cell.cell_id,
                assignments=cell.assignments,
                scenario=cell.scenario.to_dict(),
                status=STATUS_CACHED, result=cached,
            )
            say(f"[{sweep.name}] {cell.cell_id or '(single cell)'}:"
                " cache hit")
        else:
            pending.append(cell)

    ctx = _mp_context()
    forked: deque[tuple[Cell, Any, Any]] = deque()  # waiting for a slot
    running: dict[int, _Running] = {}

    def finish(run: _Running, status: str, result: dict | None,
               error: str | None) -> None:
        elapsed = time.monotonic() - run.started
        slots[run.cell.index] = CellResult(
            index=run.cell.index, cell_id=run.cell.cell_id,
            assignments=run.cell.assignments,
            scenario=run.cell.scenario.to_dict(),
            status=status, result=result, error=error,
            elapsed_s=elapsed,
        )
        if status == STATUS_OK and store is not None:
            store.put(run.cell.scenario, result or {})
        label = run.cell.cell_id or "(single cell)"
        note = status if status == STATUS_OK else f"{status}: {error}"
        say(f"[{sweep.name}] {label}: {note} ({elapsed:.2f}s)")

    try:
        while pending or forked or running:
            if pending and not forked and len(running) < jobs:
                for _ in range(min(len(pending), max(jobs, _FORK_BATCH))):
                    cell = pending.popleft()
                    parent_conn, child_conn = ctx.Pipe()
                    ends = [run.conn for run in running.values()]
                    ends += [conn for _cell, _process, conn in forked]
                    process = ctx.Process(
                        target=_cell_worker,
                        args=(child_conn, ends + [parent_conn]),
                        daemon=True,
                    )
                    process.start()
                    child_conn.close()
                    forked.append((cell, process, parent_conn))
            while forked and len(running) < jobs:
                cell, process, parent_conn = forked.popleft()
                try:
                    parent_conn.send(cell.scenario.to_dict())
                except OSError:  # died while waiting: reported below
                    pass
                now = time.monotonic()
                running[cell.index] = _Running(
                    cell=cell, process=process, conn=parent_conn,
                    started=now, deadline=now + timeout_s,
                )

            made_progress = False
            for index in list(running):
                run = running[index]
                if run.conn.poll():
                    try:
                        status, payload = run.conn.recv()
                    except (EOFError, OSError):
                        status, payload = (
                            STATUS_FAILED,
                            "worker closed the pipe without a result",
                        )
                    run.process.join()
                    if status == STATUS_OK:
                        finish(run, STATUS_OK, payload, None)
                    else:
                        finish(run, STATUS_FAILED, None, str(payload))
                elif not run.process.is_alive():
                    # Died without sending; give any buffered message
                    # that raced the death check one last chance.
                    run.process.join()
                    if run.conn.poll():
                        continue  # picked up next iteration
                    finish(
                        run, STATUS_FAILED, None,
                        "worker process died"
                        f" (exit code {run.process.exitcode})",
                    )
                elif time.monotonic() >= run.deadline:
                    run.process.terminate()
                    run.process.join()
                    finish(
                        run, STATUS_TIMEOUT, None,
                        f"cell exceeded {timeout_s:g}s wall-time limit",
                    )
                else:
                    continue
                if slots[index] is not None:
                    run.conn.close()
                    del running[index]
                    made_progress = True
            if not made_progress and running:
                time.sleep(_POLL_INTERVAL_S)
    finally:
        idle = [(process, conn) for _cell, process, conn in forked]
        for process, conn in idle + [
                (run.process, run.conn) for run in running.values()]:
            process.terminate()  # interrupted: leave no orphans
            process.join()
            conn.close()

    report.cells = [slot for slot in slots if slot is not None]
    report.elapsed_s = time.monotonic() - started
    return report
