"""The churn merge loop against the event-driven reference model.

``ChurnSimulator.run`` merges its two time-ordered streams itself;
:class:`~tests.serving.churn_reference.ReferenceChurn` sends every
arrival and release through a generic ``Simulator`` event. Both must
agree on every report field, the wait histogram's bytes, the clock, the
event count, the final pool and scaler state — and on the exact
sequence of calls into the pool and the scaler. Integer-valued
arrival and lifetime columns put arrivals and releases on the same
float instant, where only the ``(time, seq)`` tie rule decides the
order.
"""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.autoscale import ExpanderScaler
from repro.core.elastic import PagePool
from repro.errors import SimulationError
from repro.serving.churn import ChurnSimulator

from .churn_reference import ReferenceChurn
from .test_churn import make_table


class LoggedPool(PagePool):
    """A page pool that records every mutating call, in order."""

    def __init__(self, capacity_pages, log):
        super().__init__(capacity_pages)
        self.log = log

    def lease(self, owner, pages):
        self.log.append(("lease", owner, pages))
        return super().lease(owner, pages)

    def release(self, owner):
        self.log.append(("release", owner))
        return super().release(owner)

    def resize(self, capacity_pages):
        self.log.append(("resize", capacity_pages))
        super().resize(capacity_pages)


class LoggedScaler(ExpanderScaler):
    """An expander scaler that records every decision it is asked for."""

    def __init__(self, log, **kwargs):
        super().__init__(**kwargs)
        self.log = log

    def decide(self, now_ns, queued_pages, leased_pages):
        self.log.append(("decide", now_ns, queued_pages, leased_pages))
        return super().decide(now_ns, queued_pages, leased_pages)


@st.composite
def churn_cases(draw):
    unit = draw(st.integers(1, 64))            # pages per expander
    scaled = draw(st.booleans())
    if scaled:
        lo = draw(st.integers(1, 3))
        scaler = dict(
            pages_per_expander=unit, min_expanders=lo,
            max_expanders=draw(st.integers(lo, 4)),
            scale_up_queued_pages=draw(st.integers(1, 2 * unit)),
            scale_down_occupancy=draw(st.sampled_from([0.25, 0.5, 0.9])),
            cooldown_ns=float(draw(st.sampled_from([0, 1, 3, 10]))))
        top = unit * scaler["max_expanders"]
    else:
        scaler = None
        top = unit
    n = draw(st.integers(1, 40))
    # Working sets up to just past the largest pool: near capacity,
    # with the odd tenant rejected outright.
    working_sets = draw(st.lists(st.integers(1, top + 2),
                                 min_size=n, max_size=n))
    if draw(st.booleans()):
        # Integer instants: arrivals and releases collide.
        arrivals = draw(st.lists(st.integers(0, 12), min_size=n,
                                 max_size=n))
        lifetimes = draw(st.lists(st.integers(0, 12), min_size=n,
                                  max_size=n))
    else:
        arrivals = draw(st.lists(
            st.floats(0.0, 1e6, allow_nan=False), min_size=n, max_size=n))
        lifetimes = draw(st.lists(
            st.floats(0.0, 1e6, allow_nan=False), min_size=n, max_size=n))
    reclaim_ns = draw(st.sampled_from([0, 0.0, 1.0, 2.5, 200.0]))
    return unit, scaler, working_sets, arrivals, lifetimes, reclaim_ns


def play(model, case, max_events=None):
    """Run one model on a fresh table, pool and scaler; return
    everything observable."""
    unit, scaler_kw, working_sets, arrivals, lifetimes, reclaim_ns = case
    log = []
    scaler = None if scaler_kw is None else LoggedScaler(log, **scaler_kw)
    pool = LoggedPool(unit if scaler is None else scaler.capacity_pages,
                      log)
    table = make_table(working_sets, arrivals=arrivals,
                       lifetimes=np.asarray(lifetimes, np.float64))
    churn = model(table, pool, scaler=scaler, reclaim_ns=reclaim_ns)
    report = churn.run(max_events)
    state = {f.name: getattr(report, f.name) for f in fields(report)
             if f.name != "wait_hist"}
    state.update(
        wait_counts=report.wait_hist.counts.tobytes(),
        now=repr(churn.sim.now), dispatched=churn.sim.dispatched,
        horizon=repr(report.horizon_ns), pool=pool.snapshot(),
        leases=sorted(pool._leases.items()), log=log)
    if scaler is not None:
        state.update(scaler=scaler.snapshot(),
                     last_change=scaler._last_change_ns)
    return state


@settings(max_examples=400)
@given(case=churn_cases())
# A release and an arrival at t=5: the arrival was scheduled first, so it
# goes first, finds the pool full and queues behind the release.
@example(case=(10, None, [10, 10], [0, 5], [5, 5], 0))
# Tenant 2's arrival is scheduled after tenant 0's admission: at t=5 the
# release goes first and tenant 2 walks straight in.
@example(case=(11, None, [10, 1, 10], [0, 1, 5], [5, 9, 1], 0))
# A grow, a shrink and a zero cooldown on integer instants.
@example(case=(4, dict(pages_per_expander=4, min_expanders=1,
                       max_expanders=3, scale_up_queued_pages=1,
                       scale_down_occupancy=0.5, cooldown_ns=0.0),
               [4, 4, 3, 8, 13], [0, 1, 1, 2, 2], [3, 1, 0, 2, 4], 1.0))
def test_merge_matches_event_reference(case):
    assert play(ChurnSimulator, case) == play(ReferenceChurn, case)


def test_tie_rule_examples_differ_by_order():
    """The two tie examples above resolve in opposite orders: in the
    first the arrival goes first and queues until the release at the
    same instant (no wait); in the second the release goes first."""
    state = play(ChurnSimulator, (10, None, [10, 10], [0, 5], [5, 5], 0))
    assert state["peak_queue"] == 1 and state["waited"] == 0
    state = play(ChurnSimulator, (11, None, [10, 1, 10], [0, 1, 5],
                                  [5, 9, 1], 0))
    assert state["peak_queue"] == 0


def test_runaway_guard_matches_reference():
    case = (8, None, [3] * 6, list(range(6)), [2] * 6, 0)
    for model in (ChurnSimulator, ReferenceChurn):
        with pytest.raises(SimulationError, match="exceeded 5 events"):
            play(model, case, max_events=5)
