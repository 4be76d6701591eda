"""Parallel sweep execution: determinism, isolation, caching."""

import gc
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.harness.executor import _FORK_BATCH, run_sweep
from repro.harness.scenario import Scenario, Sweep
from repro.harness.store import ResultStore

SRC = Path(__file__).resolve().parents[2] / "src"


def echo_sweep(values=(1, 2, 3, 4), name="echo"):
    return Sweep(
        name=name,
        base=Scenario(experiment="debug.echo", workload={"x": 0}, seed=5),
        axes={"workload.x": tuple(values)},
    )


class TestRunSweep:
    def test_results_ordered_and_complete(self):
        report = run_sweep(echo_sweep(), jobs=2, timeout_s=60)
        assert report.ok
        assert [c.index for c in report.cells] == [0, 1, 2, 3]
        assert [c.result["workload"]["x"] for c in report.cells] == \
            [1, 2, 3, 4]
        assert report.counts == {"ok": 4}

    def test_parallel_matches_serial_byte_identical(self):
        serial = run_sweep(echo_sweep(), jobs=1, timeout_s=60)
        parallel = run_sweep(echo_sweep(), jobs=4, timeout_s=60)
        assert serial.results_canonical() == parallel.results_canonical()

    def test_derived_seeds_survive_fanout(self):
        report = run_sweep(echo_sweep(), jobs=3, timeout_s=60)
        seeds = [c.result["seed"] for c in report.cells]
        expected = [c.scenario.seed for c in echo_sweep().cells()]
        assert seeds == expected
        assert len(set(seeds)) == len(seeds)

    def test_exception_marks_cell_failed_not_sweep(self):
        sweep = Sweep(
            name="mixed",
            base=Scenario(experiment="debug.echo"),
            axes={"experiment": ("debug.echo", "debug.fail",
                                 "debug.echo")},
        )
        report = run_sweep(sweep, jobs=2, timeout_s=60)
        statuses = {c.assignments["experiment"]: c.status
                    for c in report.cells}
        assert statuses["debug.fail"] == "failed"
        assert statuses["debug.echo"] == "ok"
        assert not report.ok
        failed = next(c for c in report.cells if c.status == "failed")
        assert "deliberate harness test failure" in failed.error

    def test_worker_death_is_isolated(self):
        sweep = Sweep(
            name="crashy",
            base=Scenario(experiment="debug.echo"),
            axes={"experiment": ("debug.crash", "debug.echo")},
        )
        report = run_sweep(sweep, jobs=2, timeout_s=60)
        by_exp = {c.assignments["experiment"]: c for c in report.cells}
        assert by_exp["debug.crash"].status == "failed"
        assert by_exp["debug.echo"].status == "ok"

    def test_more_cells_than_one_fork_batch(self):
        values = tuple(range(_FORK_BATCH + 3))
        report = run_sweep(echo_sweep(values), jobs=2, timeout_s=60)
        assert report.counts == {"ok": len(values)}
        assert [c.result["workload"]["x"] for c in report.cells] == \
            list(values)

    def test_worker_killed_while_waiting_fails_only_its_cell(self):
        killed = []

        def kill_a_waiting_worker(_message):
            if not killed:
                victim = multiprocessing.active_children()[0]
                victim.kill()
                victim.join()
                killed.append(victim.pid)

        report = run_sweep(echo_sweep(), jobs=1, timeout_s=60,
                           progress=kill_a_waiting_worker)
        assert killed
        assert sorted(report.counts.items()) == [("failed", 1), ("ok", 3)]
        failed = next(c for c in report.cells if c.status == "failed")
        assert "worker" in failed.error

    def test_timeout_terminates_cell(self):
        sweep = Sweep(
            name="slow",
            base=Scenario(experiment="debug.sleep",
                          workload={"seconds": 30.0}),
            axes={"workload.i": (1,)},
        )
        report = run_sweep(sweep, jobs=1, timeout_s=0.3)
        assert report.cells[0].status == "timeout"
        assert "wall-time" in report.cells[0].error

    def test_fork_batches_freeze_and_unfreeze(self, monkeypatch):
        calls = []
        real = {name: getattr(gc, name) for name in ("freeze", "unfreeze")}

        def recorder(name):
            def call():
                calls.append((name, len(multiprocessing.active_children())))
                real[name]()
            return call

        for name in real:
            monkeypatch.setattr(gc, name, recorder(name))
        values = tuple(range(_FORK_BATCH + 3))
        report = run_sweep(echo_sweep(values), jobs=2, timeout_s=60)
        assert report.counts == {"ok": len(values)}
        # Two batches, each forked between a freeze and an unfreeze.
        assert [name for name, _ in calls] == ["freeze", "unfreeze"] * 2
        assert calls[1][1] >= calls[0][1] + _FORK_BATCH
        assert gc.get_freeze_count() == 0

    def test_heap_unfrozen_after_failed_and_timed_out_cells(self):
        sweep = Sweep(
            name="bad",
            base=Scenario(experiment="debug.sleep",
                          workload={"seconds": 30.0}),
            axes={"experiment": ("debug.fail", "debug.crash",
                                 "debug.sleep")},
        )
        report = run_sweep(sweep, jobs=3, timeout_s=1.0)
        assert sorted(report.counts.items()) == [("failed", 2),
                                                 ("timeout", 1)]
        assert gc.get_freeze_count() == 0

    def test_frozen_fanout_matches_serial_on_e7(self):
        from repro.harness import load_sweep
        sweep = load_sweep(SRC.parent / "specs" / "e7_distribution.json")
        serial = run_sweep(sweep, jobs=1, timeout_s=120)
        parallel = run_sweep(sweep, jobs=2, timeout_s=120)
        assert serial.ok and parallel.ok
        assert serial.results_canonical() == parallel.results_canonical()
        assert gc.get_freeze_count() == 0

    def test_unknown_experiment_fails_cell(self):
        sweep = Sweep(
            name="unknown",
            base=Scenario(experiment="no.such.kernel"),
            axes={"workload.i": (1,)},
        )
        report = run_sweep(sweep, jobs=1, timeout_s=60)
        assert report.cells[0].status == "failed"
        assert "unknown experiment" in report.cells[0].error

    def test_cache_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        first = run_sweep(echo_sweep(), jobs=2, store=store)
        assert first.simulated == 4 and first.cached == 0
        second = run_sweep(echo_sweep(), jobs=2, store=store)
        assert second.simulated == 0 and second.cached == 4
        assert second.counts == {"cached": 4}
        assert first.results_canonical() == second.results_canonical()

    def test_no_cache_resimulates_but_still_stores(self, tmp_path):
        store = ResultStore(tmp_path)
        run_sweep(echo_sweep(), jobs=1, store=store)
        again = run_sweep(echo_sweep(), jobs=1, store=store,
                          use_cache=False)
        assert again.cached == 0 and again.simulated == 4
        assert len(store) == 4

    def test_failed_cells_are_not_cached(self, tmp_path):
        store = ResultStore(tmp_path)
        sweep = Sweep(name="f", base=Scenario(experiment="debug.fail"),
                      axes={"workload.i": (1,)})
        run_sweep(sweep, jobs=1, store=store)
        assert len(store) == 0
        report = run_sweep(sweep, jobs=1, store=store)
        assert report.cells[0].status == "failed"

    def test_report_dict_is_json_ready(self):
        import json
        report = run_sweep(echo_sweep(values=(1,)), jobs=1)
        data = json.loads(json.dumps(report.to_dict()))
        assert data["name"] == "echo"
        assert data["counts"] == {"ok": 1}
        assert data["cells"][0]["cell_id"] == "workload.x=1"


def _running(pid: int) -> bool:
    """The process exists and is not a zombie (Linux ``/proc``)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="reads process states from /proc")
def test_waiting_workers_exit_when_the_parent_dies():
    """Workers forked ahead of their slot hold no end of a sibling's
    pipe, so a parent killed mid-sweep leaves none of them waiting."""
    script = textwrap.dedent("""
        import multiprocessing, time
        from repro.harness.executor import run_sweep
        from repro.harness.scenario import Scenario, Sweep

        def report_and_hang(_message):
            print(*(p.pid for p in multiprocessing.active_children()),
                  flush=True)
            time.sleep(60)

        run_sweep(Sweep(name="orphans",
                        base=Scenario(experiment="debug.echo"),
                        axes={"workload.x": (1, 2, 3, 4)}),
                  jobs=1, progress=report_and_hang)
    """)
    parent = subprocess.Popen(
        [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    try:
        waiting = [int(pid) for pid in parent.stdout.readline().split()]
    finally:
        parent.send_signal(signal.SIGKILL)
        parent.wait()
        parent.stdout.close()
    assert len(waiting) == 3
    deadline = time.monotonic() + 10.0
    while any(map(_running, waiting)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(_running, waiting))
