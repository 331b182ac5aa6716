"""Simulated time.

The paper's protocols are time-based: tickets carry "a time stamp, a
lifetime"; servers assume "clocks are synchronized to within several
minutes"; the master database "is dumped every hour".  Reproducing those
behaviours deterministically requires simulated time that tests can
advance at will, and *per-host skew* so the several-minute assumption can
itself be violated on demand.

Time is modelled as seconds (float) since an arbitrary epoch 0.  The
clock only tells time: what happens *at* a time — the hourly dump, a
crashed master's reboot — is an event on the realm's one queue,
:class:`~repro.runtime.scheduler.EventScheduler`, which is also the only
thing that moves the clock.
"""

from __future__ import annotations

#: Ticket lifetimes in the paper are quoted in hours ("currently 8 hours").
HOUR = 3600.0
MINUTE = 60.0

_INF = float("inf")


def _finite(value: float, what: str) -> float:
    """``value`` as a float; a NaN or infinite one names no time."""
    value = float(value)
    if not -_INF < value < _INF:
        raise ValueError(f"clock {what} must be finite, got {value}")
    return value


class SimClock:
    """The realm's reference clock."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = _finite(start, "start")

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        """Move time forward (never back) by a finite amount."""
        if not 0 <= seconds < _INF:
            raise ValueError(f"cannot advance time by {seconds}")
        self._now += seconds


class HostClock:
    """A host's view of time: the realm clock plus a fixed skew.

    Paper, Section 4.3: "It is assumed that clocks are synchronized to
    within several minutes."  Workstations whose skew exceeds the
    server's acceptance window get their requests treated as replays.
    """

    def __init__(self, reference: SimClock, skew: float = 0.0) -> None:
        self._reference = reference
        self.skew = skew

    @property
    def skew(self) -> float:
        return self._skew

    @skew.setter
    def skew(self, value: float) -> None:
        self._skew = _finite(value, "skew")

    def now(self) -> float:
        return self._reference.now() + self._skew

    def __repr__(self) -> str:
        return f"HostClock(skew={self.skew:+.1f}s)"
