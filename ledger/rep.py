"""One rep of one workload in a fresh process.

``python ledger/rep.py <workload> <seed> <scale> <mode>`` runs import
-> set-up -> ``gc.collect()`` -> timed region and prints one JSON
object as its last line. A user's sweep cell is a fresh process too,
so cold-interpreter and memo-fill costs are paid here as users pay
them, and ``ru_maxrss`` is this rep's alone.

Modes: ``plain`` (what the end-to-end metrics are measured on),
``trace`` (wrappers and spans on, probes after the region, spans
written to ``ledger/out/<workload>.trace.json``) and ``profile`` (the
region under ``cProfile`` for the exact Python-call count; no wall).

``setup_s`` and ``wall_s`` are reference seconds: ``perf_counter`` time
scaled by the host speed sampled over the same interval (``speed.py``).
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
# The script's own directory must not shadow the stdlib's ``trace``.
sys.path[0] = str(REPO)
sys.path.insert(1, str(REPO / "src"))

from ledger.speed import SpeedSampler   # noqa: E402  (stdlib only)


def _peak_rss_mib() -> float:
    """This process's peak RSS plus its largest reaped child's (the
    sweep workload's forked cells), in MiB."""
    return sum(resource.getrusage(who).ru_maxrss for who in (
        resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def main(argv: list[str]) -> int:
    name, scale, mode = argv[0], float(argv[2]), argv[3]
    seed = int(argv[1]) % 2**31    # any integer is a valid --seed
    sampler = SpeedSampler()
    begin = time.perf_counter()   # set-up time includes the imports below
    sampler.start()
    from ledger import trace as tracing
    from ledger.workloads import OUT, WORKLOADS

    cls = WORKLOADS[name]
    traced = mode == "trace"
    rec = tracing.Recorder() if traced else tracing.NullRecorder()
    result = {"workload": name, "mode": mode, "unit": cls.unit}
    try:
        if traced:
            for owner, attr, span_name in cls.wraps():
                rec.wrap(owner, attr, span_name)
        with rec.span(tracing.SETUP):
            workload = cls(seed, scale, rec)
        result["setup_s"] = (time.perf_counter() - begin) * sampler.stop()
        gc.collect()
        if mode == "profile":
            result["pycalls"] = tracing.count_python_calls(workload.run)
        else:
            sampler.start()
            start = time.perf_counter()
            with rec.span(tracing.TIMED):
                workload.run()
            raw_s = time.perf_counter() - start
            result["host_speed"] = sampler.stop()
            result["wall_s"] = raw_s * result["host_speed"]
    finally:
        if traced:
            rec.restore()
    result["peak_rss_mib"] = _peak_rss_mib()
    result.update(workload.outcome())
    if traced:
        result["layers"].update(workload.probes())
        rec.write(OUT / f"{name}.trace.json", name)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
