"""Tests for the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.simulation.engine import SimulationError, Simulator


class TestEventQueue:
    """The simulator's one heap: callbacks fire in time order, and those due
    at the same instant in the order they were scheduled."""

    def test_pop_returns_events_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda: fired.append(("c", sim.now)))
        sim.schedule(1.0, lambda: fired.append(("a", sim.now)))
        sim.schedule_at(2.0, lambda: fired.append(("b", sim.now)))
        sim.run()
        assert fired == [("a", 1.0), ("b", 2.0), ("c", 3.0)]

    def test_ties_break_by_insertion_order(self):
        sim = Simulator()
        fired = []
        for name in "abcde":
            sim.schedule(1.0, lambda name=name: fired.append(name))
        sim.schedule_at(1.0, lambda: fired.append("f"))
        sim.run()
        assert fired == list("abcdef")

    def test_callback_scheduled_for_now_runs_after_queued_ties(self):
        """An action that schedules a zero-delay callback: it fires at the
        same instant, after every callback already queued for it and
        before anything later."""
        sim = Simulator()
        fired = []

        def first() -> None:
            fired.append(("first", sim.now))
            sim.schedule(0.0, lambda: fired.append(("scheduled now", sim.now)))
            sim.schedule_at(sim.now, lambda: fired.append(("scheduled at now", sim.now)))

        sim.schedule(2.0, first)
        sim.schedule(2.0, lambda: fired.append(("second", sim.now)))
        sim.schedule(2.5, lambda: fired.append(("later", sim.now)))
        sim.run()
        assert fired == [
            ("first", 2.0),
            ("second", 2.0),
            ("scheduled now", 2.0),
            ("scheduled at now", 2.0),
            ("later", 2.5),
        ]

    def test_empty_queue_pops_none(self):
        sim = Simulator()
        sim.run()
        assert sim.events_processed == 0
        assert sim.pending == 0
        assert sim.now == 0.0

    def test_schedule_returns_nothing(self):
        sim = Simulator()
        assert sim.schedule(1.0, lambda: None) is None
        assert sim.schedule_at(2.0, lambda: None) is None
        assert sim.pending == 2


class TestSimulator:
    def test_runs_actions_in_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.run()
        assert fired == ["a", "b"]

    def test_clock_advances_to_event_times(self):
        sim = Simulator()
        observed = []
        sim.schedule(1.5, lambda: observed.append(sim.now))
        sim.schedule(4.0, lambda: observed.append(sim.now))
        sim.run()
        assert observed == [1.5, 4.0]

    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0
        assert sim.pending == 1

    def test_run_until_fires_events_at_the_horizon(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run(until=5.0)
        assert fired == [5]
        assert sim.events_processed == 1

    def test_run_until_then_resume(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        sim.run()
        assert fired == [1, 10]

    def test_actions_can_schedule_more_actions(self):
        sim = Simulator()
        fired = []

        def chain(depth: int) -> None:
            fired.append(sim.now)
            if depth > 0:
                sim.schedule(1.0, lambda: chain(depth - 1))

        sim.schedule(0.0, lambda: chain(3))
        sim.run()
        assert fired == [0.0, 1.0, 2.0, 3.0]

    def test_schedule_negative_delay_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_in_the_past_raises(self):
        sim = Simulator()
        sim.run(until=5.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(4.0, lambda: None)

    def test_run_is_not_reentrant(self):
        sim = Simulator()

        def reenter() -> None:
            sim.run()

        sim.schedule(1.0, reenter)
        with pytest.raises(SimulationError):
            sim.run()

    def test_clock_never_goes_backwards(self):
        sim = Simulator()
        times = []
        for delay in [5.0, 1.0, 3.0, 2.0, 4.0]:
            sim.schedule(delay, lambda: times.append(sim.now))
        sim.run()
        assert times == sorted(times)
