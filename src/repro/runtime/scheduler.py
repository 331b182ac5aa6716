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
from typing import Callable, List, Optional, Tuple

from repro.obs.metrics import HeldHandles


class SchedulerError(Exception):
    """Misuse of the event scheduler: scheduling into the past, a
    non-positive cadence, or an event whose time the clock has already
    passed (moved by something other than the scheduler)."""


class ScheduledEvent:
    """One pending action: a firing time, a tie-break draw, an action."""

    __slots__ = ("time", "tiebreak", "seq", "action", "label", "cancelled")

    def __init__(
        self,
        time: float,
        tiebreak: float,
        seq: int,
        action: Callable[[], None],
        label: str,
    ) -> None:
        self.time = time
        self.tiebreak = tiebreak
        self.seq = seq
        self.action = action
        self.label = label
        self.cancelled = False

    def __repr__(self) -> str:
        state = ", cancelled" if self.cancelled else ""
        return f"ScheduledEvent({self.label!r} @ {self.time:.6f}{state})"


class EventScheduler(HeldHandles):
    """A priority queue of events over one :class:`SimClock`, and the
    only thing that moves it.

    Nested pumping is allowed: an event's action may itself call
    :meth:`step`/:meth:`run_for` (this is how a server handler
    performing its own RPC waits for the nested reply, and how a retry
    backs off while the rest of the realm keeps running).
    """

    def __init__(self, clock, seed: int = 0) -> None:
        self.clock = clock
        # ``(time, tiebreak, seq, event)``: the order is the tuple's, so
        # ``heapq`` compares in C; ``seq`` is unique, so it never reaches
        # the event.
        self._heap: List[Tuple[float, float, int, ScheduledEvent]] = []
        self._seq = itertools.count()
        # Tie-breaking only — kept separate from the fault plane's RNG so
        # scheduling never perturbs fault draws (and vice versa).
        self._rng = random.Random(f"runtime:{seed}")
        #: Optional MetricsRegistry, set by the network; the held
        #: ``runtime.events_*_total`` handles are keyed (series, label).
        self.metrics = None
        self._executed = 0

    def _counter(self, series: str, label: str):
        """Bind ``series{label}`` the first time an event of that label
        is seen."""
        handle = self._held[series, label] = self._metrics.counter(
            series, {"label": label or "event"}
        )
        return handle

    # -- scheduling -------------------------------------------------------

    def at(
        self, when: float, action: Callable[[], None], label: str = ""
    ) -> ScheduledEvent:
        """Schedule ``action`` at simulated time ``when`` (clamped to now:
        the past is not available)."""
        when = max(float(when), self.clock.now())
        tiebreak, seq = self._rng.random(), next(self._seq)
        event = ScheduledEvent(when, tiebreak, seq, action, label)
        heapq.heappush(self._heap, (when, tiebreak, seq, event))
        if self._metrics is not None:
            key = ("runtime.events_scheduled_total", label)
            (self._held.get(key) or self._counter(*key)).inc()
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
        """Run ``action`` every ``interval`` seconds, for ever: each run
        schedules the next ``interval`` after it finishes.  A realm with
        a cadence never idles — drive it with :meth:`run_for`."""
        if interval <= 0:
            raise SchedulerError(f"interval must be positive, got {interval}")

        def fire() -> None:
            action()
            self.after(interval, fire, label)

        self.after(interval, fire, label)

    def cancel(self, event: ScheduledEvent) -> None:
        """Cancel a pending event; a no-op if it already ran."""
        event.cancelled = True

    # -- inspection --------------------------------------------------------

    def _skim(self) -> Optional[ScheduledEvent]:
        """The earliest live event, discarding cancelled heap heads."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
        return heap[0][3] if heap else None

    def next_time(self) -> Optional[float]:
        """Firing time of the earliest pending event (None when idle)."""
        head = self._skim()
        return head.time if head is not None else None

    def pending(self) -> int:
        """Live (non-cancelled) events still queued."""
        return sum(1 for *_order, e in self._heap if not e.cancelled)

    @property
    def executed(self) -> int:
        """Events run since construction (monotone; determinism probes
        compare this across same-seed runs)."""
        return self._executed

    # -- execution ---------------------------------------------------------

    def step(self) -> bool:
        """Run the earliest event, advancing the clock to it.  Returns
        False when no event is pending; raises :class:`SchedulerError`
        (leaving the event queued) if the clock has already passed it."""
        head = self._skim()
        if head is None:
            return False
        gap = head.time - self.clock.now()
        if gap < 0:
            raise SchedulerError(
                f"{head!r} is {-gap:.6f}s late: the clock was moved past "
                "it outside the runtime (wait with run_for, not "
                "clock.advance)"
            )
        heapq.heappop(self._heap)
        if gap > 0:
            self.clock.advance(gap)
        self._executed += 1
        if self._metrics is not None:
            key = ("runtime.events_run_total", head.label)
            (self._held.get(key) or self._counter(*key)).inc()
        head.action()
        return True

    def run_until_idle(
        self,
        horizon: Optional[float] = None,
        max_events: int = 10_000_000,
    ) -> int:
        """Run events until none remain (or none before ``horizon``).
        Returns the number of events executed.  ``max_events`` is a
        runaway backstop, not a tuning knob."""
        ran = 0
        while ran < max_events:
            next_at = self.next_time()
            if next_at is None or (horizon is not None and next_at > horizon):
                break
            self.step()
            ran += 1
        return ran

    def run_for(self, seconds: float) -> int:
        """Run everything due within the next ``seconds`` of simulated
        time, then advance the clock to the end of the window."""
        horizon = self.clock.now() + seconds
        ran = self.run_until_idle(horizon=horizon)
        remaining = horizon - self.clock.now()
        if remaining > 0:
            self.clock.advance(remaining)
        return ran

    def __repr__(self) -> str:
        return (
            f"EventScheduler(pending={self.pending()}, "
            f"executed={self._executed}, now={self.clock.now():.6f})"
        )


__all__ = ["EventScheduler", "ScheduledEvent", "SchedulerError"]
