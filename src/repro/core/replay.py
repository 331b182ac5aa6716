"""Replay detection (paper Section 4.3).

*"The server is also allowed to keep track of all past requests with
time stamps that are still valid.  In order to further foil replay
attacks, a request received with the same ticket and time stamp as one
already received can be discarded."*

The cache remembers (client, address, timestamp) triples for as long as
their timestamps remain inside the acceptance window; older entries are
purged as time advances, bounding memory at (window x request rate).

When a :class:`repro.obs.MetricsRegistry` is supplied, the cache records
``replay.checks_total{result="fresh"|"replay"}`` and
``replay.evictions_total`` — the signals replay-attack analyses hinge
on (Dua et al., arXiv:1304.3550).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Mapping, Optional, Set, Tuple

from repro.netsim.clock import MINUTE

#: "It is assumed that clocks are synchronized to within several
#: minutes" — we take "several" to be five.
CLOCK_SKEW = 5 * MINUTE

_Entry = Tuple[str, int, float]


class ReplayCache:
    """Remembers recently seen authenticators for one server."""

    def __init__(
        self,
        window: float = CLOCK_SKEW,
        metrics=None,
        labels: Optional[Mapping[str, object]] = None,
        audit=None,
        host: str = "",
    ) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = float(window)
        self._seen: Set[_Entry] = set()
        #: The same entries, oldest first: each authenticator is kept once.
        self._order: Deque[_Entry] = deque()
        #: The security-event log a caught replay is reported to (the
        #: Section 4.3 "can be discarded" moment is an audit event).
        self._audit = audit
        self._host = host
        if metrics is not None:
            checks = metrics.family("counter", "replay.checks_total", ("result",), labels)
            self._fresh, self._replayed = checks["fresh"], checks["replay"]
            self._evictions = metrics.family("counter", "replay.evictions_total", (), labels)[()]
            self._size = metrics.family("gauge", "replay.entries", (), labels)[()]
        else:
            self._fresh = self._replayed = self._evictions = self._size = None

    def seen_before(self, client: str, address: int, timestamp: float) -> bool:
        """Has this exact (client, addr, timestamp) already been presented?"""
        return (client, address, timestamp) in self._seen

    def _store(self, entry: _Entry, now: float) -> None:
        """Insert an entry the caller has already proven absent.

        Purging is amortized: entries are only swept when the *oldest*
        one has actually aged out of the window, so the steady-state
        insert is a set add + deque append rather than a scan.
        """
        if self._order and self._order[0][2] < now - self.window:
            self.purge(now)
        self._seen.add(entry)
        self._order.append(entry)

    def check_and_store(
        self, client: str, address: int, timestamp: float, now: float
    ) -> bool:
        """Combined operation: True if fresh (and now recorded), False if
        this is a replay.  This is the KDC/server hot path: one set
        lookup decides, and the store skips the redundant re-check."""
        entry = (client, address, timestamp)
        if entry in self._seen:
            if self._replayed is not None:
                self._replayed.inc()
            if self._audit is not None:
                self._audit.emit(
                    "replay_detected",
                    host=self._host,
                    principal=client,
                    detail=f"reused authenticator ts={timestamp:.3f}",
                )
            return False
        self._store(entry, now)
        if self._fresh is not None:
            self._fresh.inc()
            self._size.set(len(self._seen))
        return True

    def purge(self, now: float) -> None:
        """Drop entries whose timestamps have fallen out of the window."""
        cutoff = now - self.window
        evicted = 0
        order, seen = self._order, self._seen
        while order and order[0][2] < cutoff:
            seen.discard(order.popleft())
            evicted += 1
        if evicted and self._evictions is not None:
            self._evictions.inc(evicted)
            self._size.set(len(self._seen))

    def __len__(self) -> int:
        return len(self._seen)
