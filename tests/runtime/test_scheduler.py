"""The discrete-event scheduler: ordering, determinism, cancellation.

The runtime's contract is the one the chaos suite leans on: same seed ⇒
identical event order and identical final state; ties at one simulated
instant are shuffled by the seeded tie-break, not by insertion accident.
"""

import pytest

from repro.netsim import SimClock
from repro.netsim.clock import HOUR
from repro.runtime import EventScheduler, SchedulerError


def make(seed=0, start=0.0):
    clock = SimClock(start)
    return clock, EventScheduler(clock, seed=seed)


class TestOrdering:
    def test_events_fire_in_time_order(self):
        clock, sched = make()
        log = []
        sched.at(3.0, lambda: log.append("c"))
        sched.at(1.0, lambda: log.append("a"))
        sched.at(2.0, lambda: log.append("b"))
        sched.run_until_idle()
        assert log == ["a", "b", "c"]
        assert clock.now() == 3.0

    def test_step_advances_clock_to_the_event(self):
        clock, sched = make()
        sched.at(5.0, lambda: None)
        assert sched.step() is True
        assert clock.now() == 5.0
        assert sched.step() is False  # idle

    def test_after_schedules_relative_to_now(self):
        clock, sched = make(start=100.0)
        fired = []
        sched.after(2.5, lambda: fired.append(clock.now()))
        sched.run_until_idle()
        assert fired == [102.5]

    def test_past_times_clamp_to_now(self):
        clock, sched = make(start=50.0)
        fired = []
        sched.at(1.0, lambda: fired.append(clock.now()))
        sched.run_until_idle()
        assert fired == [50.0]

    def test_negative_delay_rejected(self):
        _, sched = make()
        with pytest.raises(SchedulerError):
            sched.after(-1.0, lambda: None)

    def test_cadence_interleaves_with_events(self):
        """A cadence due *between* two events fires between them — one
        queue, one timeline."""
        clock, sched = make()
        log = []
        sched.at(1.0, lambda: log.append("event@1"))
        sched.every(2.0, lambda: log.append(f"daemon@{clock.now():g}"))
        sched.at(3.0, lambda: log.append("event@3"))
        sched.run_for(4.5)
        assert log == ["event@1", "daemon@2", "event@3", "daemon@4"]

    def test_horizon_stops_early(self):
        clock, sched = make()
        log = []
        sched.at(1.0, lambda: log.append(1))
        sched.at(10.0, lambda: log.append(10))
        ran = sched.run_until_idle(horizon=5.0)
        assert ran == 1 and log == [1]
        assert sched.pending() == 1

    def test_run_for_runs_each_event_at_its_own_instant(self):
        """One long window still runs an event at its scheduled time."""
        clock, sched = make()
        seen = []
        sched.at(3.0, lambda: seen.append(clock.now()))
        sched.run_for(100.0)
        assert seen == [3.0]
        assert clock.now() == 100.0

    def test_run_for_advances_to_window_end(self):
        clock, sched = make()
        sched.at(1.0, lambda: None)
        sched.run_for(4.0)
        assert clock.now() == 4.0  # past the event, to the horizon
        sched.run_for(2.0)  # empty window still advances
        assert clock.now() == 6.0

    def test_event_may_schedule_more_events(self):
        clock, sched = make()
        log = []

        def chain(n):
            log.append(n)
            if n < 3:
                sched.after(1.0, lambda: chain(n + 1))

        sched.at(0.0, lambda: chain(0))
        sched.run_until_idle()
        assert log == [0, 1, 2, 3]
        assert clock.now() == 3.0


class TestEvery:
    def test_every_keeps_cadence(self):
        """Models the paper's hourly database dump (Fig. 13)."""
        clock, sched = make()
        dumps = []
        sched.every(HOUR, lambda: dumps.append(clock.now()))
        sched.run_for(4 * HOUR)
        assert dumps == [HOUR, 2 * HOUR, 3 * HOUR, 4 * HOUR]

    def test_every_across_one_run_for_window(self):
        _, sched = make()
        count = []
        sched.every(1.0, lambda: count.append(None))
        sched.run_for(10.0)
        assert len(count) == 10
        assert sched.pending() == 1  # a cadence never idles

    def test_every_rejects_a_non_positive_interval(self):
        _, sched = make()
        with pytest.raises(SchedulerError):
            sched.every(0, lambda: None)


class TestLateEvents:
    def test_an_event_the_clock_passed_is_refused_not_run_late(self):
        """Moving the clock outside the runtime past a pending event is
        an error at the next step: the event stays queued, unrun."""
        clock, sched = make()
        fired = []
        sched.at(1.0, lambda: fired.append(clock.now()))
        clock.advance(5.0)
        with pytest.raises(SchedulerError, match="late"):
            sched.step()
        assert fired == []
        assert sched.pending() == 1


class TestCancellation:
    def test_cancelled_event_does_not_run(self):
        clock, sched = make()
        log = []
        event = sched.at(1.0, lambda: log.append("no"))
        sched.at(2.0, lambda: log.append("yes"))
        sched.cancel(event)
        sched.run_until_idle()
        assert log == ["yes"]

    def test_cancelled_head_does_not_advance_clock(self):
        clock, sched = make()
        event = sched.at(10.0, lambda: None)
        sched.cancel(event)
        assert sched.next_time() is None
        assert clock.now() == 0.0

    def test_pending_excludes_cancelled(self):
        _, sched = make()
        event = sched.at(1.0, lambda: None)
        sched.at(2.0, lambda: None)
        assert sched.pending() == 2
        sched.cancel(event)
        assert sched.pending() == 1


class TestDeterminism:
    @staticmethod
    def _run(seed):
        """Many events colliding at the same instants; return the exact
        firing order plus the final snapshot (clock, executed count)."""
        clock, sched = make(seed=seed)
        order = []
        for i in range(40):
            when = float(i % 4)  # ten-way ties at t=0..3
            sched.at(when, lambda i=i: order.append(i))
        sched.run_until_idle()
        return order, clock.now(), sched.executed

    def test_same_seed_identical_order_and_snapshot(self):
        assert self._run(11) == self._run(11)

    def test_different_seed_shuffles_ties(self):
        order_a, *_ = self._run(11)
        order_b, *_ = self._run(12)
        assert sorted(order_a) == sorted(order_b)  # same work...
        assert order_a != order_b  # ...different tie-break order

    def test_ties_are_not_insertion_ordered(self):
        """The tie-break is a seeded shuffle, not FIFO — concurrent
        arrivals at a busy server must not serialize by call order."""
        _, sched = make(seed=3)
        order = []
        for i in range(20):
            sched.at(1.0, lambda i=i: order.append(i))
        sched.run_until_idle()
        assert order != sorted(order)
