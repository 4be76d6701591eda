"""Host-speed sampling inside the measured process.

Raw wall time on the reference box cannot carry any bound the contract
allows: whole invocations run 1.3-2x slower for minutes at a time, and
two sets of ten raw invocations moved a workload's median by 26 %
(README.md, "Bounds, noise and reference seconds"). A probe bracketed
*around* a rep samples one moment of a process whose speed changes
within the rep, and was rejected twice. This sampler runs *during* the measured interval: an
interval timer fires every ``PERIOD_S`` and its handler — same process,
same thread, between two bytecodes of the program — times a fixed
kernel. Every time metric is then

    reference seconds = raw seconds * speed,
    speed = REFERENCE_S / mean kernel seconds over the same interval

which reads as seconds on the reference box in its quiet state, sampler
included (its ~2.3 ms of every 50 ms are part of every reading, on both
sides of any comparison).

The kernel is 4,000 dict look-ups spread over a table larger than the
core's L2; kernels that stay inside L1 left more spread and were
dropped. The price is that the kernel is not blind to the program: it
runs on the caches the program leaves behind. In the quiet state its
mean differed by up to 8 % between workloads as unlike as ``scan_warm``
and ``serving_pond``; that is the most a change to the program can shift
``speed``. It also under-corrects: in a deep episode the program slows
more than the kernel does, so reference seconds halve the run-to-run
spread and do not remove it.

Standard library only: the sampler runs while ``numpy`` and the program
are imported, which the set-up clock covers.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Mean kernel time on the reference box in its quiet state, measured
#: inside a running workload. Speed 1.0 is that box, that state.
REFERENCE_S = 0.0022
PERIOD_S = 0.05
_TABLE = 120_000
_LOOKUPS = 4_000


class SpeedSampler:
    """Times a fixed kernel every ``PERIOD_S`` while started."""

    def __init__(self) -> None:
        self._table = {i: i * 2 for i in range(_TABLE)}
        self._keys = [(i * 7919) % _TABLE for i in range(_LOOKUPS)]
        self._samples: list[float] = []

    def _kernel(self) -> float:
        table, total = self._table, 0
        start = time.perf_counter()
        for key in self._keys:
            total += table[key]
        return time.perf_counter() - start

    def _tick(self, _signum, _frame) -> None:
        self._samples.append(self._kernel())

    def start(self) -> None:
        self._samples = []
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> float:
        """Stop sampling; the host's speed over the interval.

        The mean sample is what a wall time integrates. Samples above
        twice the median lost the CPU in mid-kernel (most of
        ``sweep_gated``'s do: its cells keep both cores busy while this
        process waits) and are left out. An interval too short for one
        tick is sampled once, now.
        """
        signal.setitimer(signal.ITIMER_REAL, 0)
        samples = self._samples or [self._kernel()]
        ceiling = 2.0 * statistics.median(samples)
        return REFERENCE_S / statistics.mean(
            sample for sample in samples if sample <= ceiling)
