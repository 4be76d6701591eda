"""Discrete-event core: clock and event queue."""

import pytest

from repro.errors import SimulationError
from repro.sim.clock import SimClock
from repro.sim.events import Simulator


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_custom_start(self):
        assert SimClock(100.0).now == 100.0

    def test_negative_start_rejected(self):
        with pytest.raises(SimulationError):
            SimClock(-1.0)

    def test_advance(self):
        clock = SimClock()
        assert clock.advance(50.0) == 50.0
        assert clock.advance(25.0) == 75.0

    def test_advance_zero_allowed(self):
        clock = SimClock(10.0)
        assert clock.advance(0.0) == 10.0

    def test_negative_advance_rejected(self):
        with pytest.raises(SimulationError):
            SimClock().advance(-5.0)

    def test_advance_to(self):
        clock = SimClock()
        clock.advance_to(500.0)
        assert clock.now == 500.0

    def test_advance_to_past_rejected(self):
        clock = SimClock(100.0)
        with pytest.raises(SimulationError):
            clock.advance_to(50.0)


class TestSimulator:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.at(30.0, fired.append, "c")
        sim.at(10.0, fired.append, "a")
        sim.at(20.0, fired.append, "b")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_fifo_among_equal_timestamps(self):
        sim = Simulator()
        fired = []
        for tag in ("first", "second", "third"):
            sim.at(5.0, fired.append, tag)
        sim.run()
        assert fired == ["first", "second", "third"]

    def test_clock_tracks_dispatch(self):
        sim = Simulator()
        sim.at(42.0, lambda: None)
        sim.run()
        assert sim.now == 42.0

    def test_after_is_relative(self):
        sim = Simulator()
        times = []
        sim.at(10.0, lambda: sim.after(5.0, lambda: times.append(sim.now)))
        sim.run()
        assert times == [15.0]

    def test_scheduling_in_past_rejected(self):
        sim = Simulator()
        sim.at(10.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.at(5.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().after(-1.0, lambda: None)

    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.at(10.0, fired.append, "x")
        event.cancel()
        sim.at(20.0, fired.append, "y")
        sim.run()
        assert fired == ["y"]

    def test_run_until_stops_early(self):
        sim = Simulator()
        fired = []
        sim.at(10.0, fired.append, "early")
        sim.at(100.0, fired.append, "late")
        sim.run(until_ns=50.0)
        assert fired == ["early"]
        assert sim.now == 50.0
        assert sim.pending == 1

    def test_run_until_then_resume(self):
        sim = Simulator()
        fired = []
        sim.at(10.0, fired.append, 1)
        sim.at(100.0, fired.append, 2)
        sim.run(until_ns=50.0)
        sim.run()
        assert fired == [1, 2]

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False

    def test_dispatched_counter(self):
        sim = Simulator()
        for t in (1.0, 2.0, 3.0):
            sim.at(t, lambda: None)
        sim.run()
        assert sim.dispatched == 3

    def test_runaway_guard(self):
        sim = Simulator()

        def reschedule():
            sim.after(1.0, reschedule)

        sim.at(0.0, reschedule)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_chained_events_extend_simulation(self):
        sim = Simulator()
        counter = []

        def tick(n):
            counter.append(n)
            if n < 5:
                sim.after(10.0, tick, n + 1)

        sim.at(0.0, tick, 1)
        sim.run()
        assert counter == [1, 2, 3, 4, 5]
        assert sim.now == 40.0

    def test_advance_to_accounts_for_merged_entries(self):
        # A caller that ran three entries itself, the last at 7 ns,
        # leaves the simulator as if the queue had dispatched them.
        sim = Simulator()
        sim.advance_to(7.0, 3)
        assert (sim.now, sim.dispatched) == (7.0, 3)
        sim.at(9.0, lambda: None)
        sim.advance_to(9.0, 0)          # up to a queued entry is fine
        assert sim.run() == 1 and sim.dispatched == 4

    def test_advance_to_refuses_to_skip_or_rewind(self):
        sim = Simulator()
        sim.at(5.0, lambda: None)
        with pytest.raises(SimulationError, match="past an entry"):
            sim.advance_to(6.0, 1)
        with pytest.raises(SimulationError, match="negative"):
            sim.advance_to(1.0, -1)
        sim.run()
        with pytest.raises(SimulationError, match="backwards"):
            sim.advance_to(1.0, 1)
        assert (sim.now, sim.dispatched) == (5.0, 1)
