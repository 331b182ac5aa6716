"""Simulated clock tests: advancement, timed actions, per-host skew.

The clock only tells time; an action at a time is an event on the
runtime's queue, which moves the clock (the queue's own contract is in
``tests/runtime/test_scheduler.py``)."""

import pytest

from repro.netsim import HostClock, SimClock
from repro.netsim.clock import MINUTE
from repro.runtime import EventScheduler, SchedulerError


def timeline(start=0.0):
    clock = SimClock(start)
    return clock, EventScheduler(clock)


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now() == 0.0

    def test_custom_start(self):
        assert SimClock(start=100.0).now() == 100.0

    def test_advance(self):
        clock = SimClock()
        clock.advance(5.5)
        clock.advance(4.5)
        assert clock.now() == 10.0

    def test_advance_backwards_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1)

    @pytest.mark.parametrize("start", [float("nan"), float("inf"), -float("inf")])
    def test_a_non_finite_start_is_refused(self, start):
        with pytest.raises(ValueError, match="start"):
            SimClock(start)

    @pytest.mark.parametrize("seconds", [float("nan"), float("inf")])
    def test_advance_by_a_non_finite_amount_rejected(self, seconds):
        clock = SimClock(start=3.0)
        with pytest.raises(ValueError):
            clock.advance(seconds)
        assert clock.now() == 3.0

    def test_call_at_fires_when_due(self):
        clock, runtime = timeline()
        fired = []
        runtime.at(10.0, lambda: fired.append(clock.now()))
        runtime.run_for(9.9)
        assert fired == []
        runtime.run_for(0.2)
        assert fired == [10.0]

    def test_call_at_in_past_rejected(self):
        """The past is not available: a negative delay is refused, and
        an event the clock was moved past is refused, not run late."""
        clock, runtime = timeline()
        fired = []
        runtime.at(5.0, lambda: fired.append(clock.now()))
        clock.advance(10)
        with pytest.raises(SchedulerError):
            runtime.after(-5.0, lambda: None)
        with pytest.raises(SchedulerError):
            runtime.step()
        assert fired == []

    def test_callbacks_fire_in_order(self):
        clock, runtime = timeline()
        order = []
        runtime.at(2.0, lambda: order.append("b"))
        runtime.at(1.0, lambda: order.append("a"))
        runtime.at(3.0, lambda: order.append("c"))
        runtime.run_for(5)
        assert order == ["a", "b", "c"]
        assert clock.now() == 5.0

    def test_callback_can_schedule_more(self):
        clock, runtime = timeline()
        fired = []

        def first():
            fired.append("first")
            runtime.at(clock.now() + 1, lambda: fired.append("second"))

        runtime.at(1.0, first)
        runtime.run_for(3.0)
        assert fired == ["first", "second"]

    def test_pending_callbacks(self):
        _, runtime = timeline()
        assert runtime.pending() == 0
        runtime.at(1.0, lambda: None)
        assert runtime.pending() == 1
        runtime.run_for(2)
        assert runtime.pending() == 0


class TestHostClock:
    def test_no_skew_tracks_reference(self):
        ref = SimClock()
        host = HostClock(ref)
        ref.advance(42)
        assert host.now() == 42

    def test_positive_and_negative_skew(self):
        ref = SimClock(start=1000)
        fast = HostClock(ref, skew=3 * MINUTE)
        slow = HostClock(ref, skew=-3 * MINUTE)
        assert fast.now() == 1180
        assert slow.now() == 820

    def test_skew_is_mutable(self):
        """Tests drift a workstation's clock over a session."""
        ref = SimClock()
        host = HostClock(ref, skew=0)
        host.skew = 600
        assert host.now() == 600

    @pytest.mark.parametrize("skew", [float("nan"), float("inf"), -float("inf")])
    def test_a_non_finite_skew_is_refused(self, skew):
        """A NaN skew would make every timestamp NaN: a refused login
        filed under another cause, not a clock that names no time."""
        with pytest.raises(ValueError, match="skew"):
            HostClock(SimClock(), skew=skew)
        host = HostClock(SimClock(), skew=60)
        with pytest.raises(ValueError, match="skew"):
            host.skew = skew
        assert host.now() == 60

    def test_repr_shows_skew(self):
        assert "+60.0" in repr(HostClock(SimClock(), skew=60))
