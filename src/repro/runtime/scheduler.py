"""The deterministic discrete-event scheduler.

The paper's Section 9 deployment — 5,000 users, 650 workstations, three
Kerberos machines — is a *concurrent* system: datagrams are in flight
while servers work, and a busy KDC queues requests rather than serving
them instantly.  The original netsim delivered every datagram inline
(``Network.send`` called the handler synchronously), which serializes
the whole realm through one call stack.  This module replaces that with
scheduled events on the simulated clock:

* every event carries a firing time on the :class:`~repro.netsim.clock.
  SimClock`; the scheduler pops the earliest and advances the clock to
  it.  It is the realm's only queue: timed work (the hourly propagation
  cadence of :meth:`every`, a crashed host's restart) is an event like a
  datagram leg, so everything runs in one time order — and an event the
  clock has already passed is refused, never run late;
* ties at the same simulated instant are broken by a draw from a
  *seeded* RNG (then by insertion order), so concurrent arrivals at a
  busy server shuffle realistically yet identically on every same-seed
  run — the determinism the chaos suite and the replay analyses
  (Dua et al., arXiv:1304.3550) depend on;
* events can be cancelled in O(1); cancelled entries are skimmed off
  without advancing the clock.

The scheduler knows nothing about datagrams or Kerberos; it runs any
zero-argument callable.  :mod:`repro.netsim.network` schedules datagram
legs on it, and :mod:`repro.runtime.workqueue` builds server-side worker
pools from it.
"""

from __future__ import annotations

import heapq
import itertools
import random
from types import SimpleNamespace
from typing import Callable, List, Optional, Tuple

_INF = float("inf")

_RUNAWAY = 10_000_000  # events one wait runs at most: a backstop, not a knob


class SchedulerError(Exception):
    """Misuse of the event scheduler: scheduling into the past or at a
    non-finite time, a non-positive cadence, or an event whose time the
    clock has already passed (moved by something other than the
    scheduler)."""


class ScheduledEvent:
    """One pending action: a firing time, an action, a label."""

    __slots__ = ("time", "action", "label", "cancelled")

    def __init__(self, time: float, action: Callable[[], None], label: str) -> None:
        self.time = time
        self.action = action
        self.label = label
        self.cancelled = False

    def __repr__(self) -> str:
        state = ", cancelled" if self.cancelled else ""
        return f"ScheduledEvent({self.label!r} @ {self.time:.6f}{state})"


#: What a wait on ``None`` waits for: nothing.
_NEVER = SimpleNamespace(done=False)


class _NextEvent:
    """What :meth:`EventScheduler.step` waits for: one more event run."""

    def __init__(self, runtime: "EventScheduler") -> None:
        self._runtime, self._before = runtime, runtime._executed

    @property
    def done(self) -> bool:
        return self._runtime._executed > self._before


class EventScheduler:
    """A priority queue of events over one :class:`SimClock`, and the
    only thing that moves it.

    Every event runs inside :meth:`wait`, and waits nest: an event's
    action may itself wait (this is how a server handler performing its
    own RPC waits for the nested reply, and how a retry backs off while
    the rest of the realm keeps running).

    With a ``metrics`` registry it counts every event scheduled and run
    into ``runtime.events_{scheduled,run}_total{label}`` and sets the
    ``runtime.wait_depth_max`` gauge; without one (None) it counts
    nothing.
    """

    def __init__(self, clock, seed: int = 0, metrics=None) -> None:
        self.clock = clock
        # ``(time, tiebreak, seq, event)``: the order is the tuple's, so
        # ``heapq`` compares in C; ``seq`` is unique, so it never reaches
        # the event.
        self._heap: List[Tuple[float, float, int, ScheduledEvent]] = []
        self._seq = itertools.count()
        # Tie-breaking only — kept separate from the fault plane's RNG so
        # scheduling never perturbs fault draws (and vice versa).
        self._rng = random.Random(f"runtime:{seed}")
        self._executed = 0
        self._depth = self._deepest = 0  # waits open on the stack, and the most
        self._events_scheduled = self._events_run = self._wait_depth = None
        if metrics is not None:
            self._events_scheduled = metrics.family(
                "counter", "runtime.events_scheduled_total", ("label",)
            )
            self._events_run = metrics.family(
                "counter", "runtime.events_run_total", ("label",)
            )
            self._wait_depth = metrics.family("gauge", "runtime.wait_depth_max", ())

    # -- scheduling -------------------------------------------------------

    def at(
        self, when: float, action: Callable[[], None], label: str = ""
    ) -> ScheduledEvent:
        """Schedule ``action`` at simulated time ``when`` (clamped to now:
        the past is not available).  A NaN or infinite ``when`` names no
        instant and is refused."""
        when = float(when)
        if not when < _INF:
            raise SchedulerError(f"cannot schedule at {when}")
        when = max(when, self.clock.now())
        tiebreak, seq = self._rng.random(), next(self._seq)
        event = ScheduledEvent(when, action, label)
        heapq.heappush(self._heap, (when, tiebreak, seq, event))
        if self._events_scheduled is not None:
            self._events_scheduled[label or "event"].inc()
        return event

    def after(
        self, delay: float, action: Callable[[], None], label: str = ""
    ) -> ScheduledEvent:
        """Schedule ``action`` ``delay`` seconds from now."""
        if delay < 0:
            raise SchedulerError(f"cannot schedule {delay}s in the past")
        return self.at(self.clock.now() + delay, action, label)

    def every(
        self, interval: float, action: Callable[[], None], label: str = ""
    ) -> None:
        """Run ``action`` every ``interval`` seconds, for ever.  Runs are
        due at whole multiples of ``interval`` after this call, however
        long each run takes: a run that overruns the next slot has the
        next run start at once (:meth:`at` clamps it to now), and the
        slots it overran wholly are skipped.  A realm with a cadence
        never idles — drive it with :meth:`run_for`."""
        if interval <= 0:
            raise SchedulerError(f"interval must be positive, got {interval}")
        start, slot = self.clock.now(), 1

        def fire() -> None:
            nonlocal slot
            action()
            elapsed = int((self.clock.now() - start) // interval)
            slot = max(slot + 1, elapsed)
            self.at(start + slot * interval, fire, label)

        self.at(start + interval, fire, label)

    def cancel(self, event: ScheduledEvent) -> None:
        """Cancel a pending event; a no-op if it already ran."""
        event.cancelled = True

    # -- inspection --------------------------------------------------------

    def next_time(self) -> Optional[float]:
        """Firing time of the earliest pending event (None when idle),
        discarding cancelled heap heads."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def pending(self) -> int:
        """Live (non-cancelled) events still queued."""
        return sum(1 for *_order, e in self._heap if not e.cancelled)

    @property
    def executed(self) -> int:
        """Events run since construction (monotone; determinism probes
        compare this across same-seed runs)."""
        return self._executed

    # -- execution ---------------------------------------------------------

    def wait(self, pending, deadline: float) -> bool:
        """The runtime's one event loop: run events until ``pending.done``
        (``None``: never) or until none is due by ``deadline``, which
        leaves the clock at the deadline and later events queued.
        Returns whether ``pending`` resolved.  An action may wait in
        turn, one level deeper; an event the clock has already passed
        raises :class:`SchedulerError` and stays queued."""
        pending = _NEVER if pending is None else pending
        depth = self._depth = self._depth + 1
        if depth > self._deepest:
            self._deepest = depth
            if self._wait_depth is not None:
                self._wait_depth[()].set(depth - 1)
        heap, clock, events_run = self._heap, self.clock, self._events_run
        budget = self._executed + _RUNAWAY
        try:
            while not pending.done and self._executed < budget:
                if not heap or heap[0][0] > deadline:
                    remaining = deadline - clock.now()
                    if 0 < remaining < _INF:
                        clock.advance(remaining)
                    break
                when, _tiebreak, _seq, event = heap[0]
                if event.cancelled:
                    heapq.heappop(heap)
                    continue
                gap = when - clock.now()
                if gap < 0:
                    raise SchedulerError(
                        f"{event!r} is {-gap:.6f}s late: the clock was moved "
                        "past it outside the runtime (wait with run_for, "
                        "not clock.advance)"
                    )
                heapq.heappop(heap)
                if gap > 0:
                    clock.advance(gap)
                self._executed += 1
                if events_run is not None:
                    events_run[event.label or "event"].inc()
                event.action()
            return pending.done
        finally:
            self._depth -= 1

    def step(self) -> bool:
        """Run the earliest event, advancing the clock to it.  Returns
        False when no event is pending."""
        return self.wait(_NextEvent(self), _INF)

    def run_until_idle(self) -> None:
        """Run events until none remain."""
        self.wait(None, _INF)

    def run_for(self, seconds: float) -> int:
        """Run everything due within the next ``seconds`` of simulated
        time, then advance the clock to the end of the window; returns
        how many events ran."""
        horizon = self.clock.now() + seconds
        if not horizon < _INF:
            raise SchedulerError(f"cannot run for {seconds}s")
        before = self._executed
        self.wait(None, horizon)
        return self._executed - before

    def __repr__(self) -> str:
        return (
            f"EventScheduler(pending={self.pending()}, "
            f"executed={self._executed}, now={self.clock.now():.6f})"
        )


__all__ = ["EventScheduler", "ScheduledEvent", "SchedulerError"]
