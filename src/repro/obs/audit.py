"""The security audit plane: structured, append-only event records.

The paper's operational story (Section 5.2: "All requests to the
administration server, whether successful or not, are logged") and the
auditable-authentication line of work (e.g. Time-Assisted Authentication,
arXiv:1702.04055) both treat security *events* — not just counters — as
a first-class observability plane: who failed to authenticate, where a
replay was caught, which propagation transfer arrived tampered.

:class:`AuditLog` is that plane for the whole realm: one append-only
log of :class:`AuditEvent` records (kept as rows of parallel columns,
built as events only when read), stamped on the simulated clock and
tagged with the propagated trace ID so an event can be joined back to
the exact exchange that raised it.  The event vocabulary is closed
(:data:`AUDIT_KINDS`) to keep the record stream — and the
``audit.events_total{kind}`` series — analyzable.

All emission goes through :meth:`AuditLog.emit_run` (a run of events
of one kind; :meth:`AuditLog.emit` is a run of one); constructing an
:class:`AuditEvent` anywhere else under ``src/repro`` is rejected by the
``tests/lint`` rule ``audit-event-built-in-one-module``, the same way
``no-wall-clock-or-global-rng`` protects determinism.
"""

from __future__ import annotations

import itertools
from array import array
from typing import Dict, List, NamedTuple, Optional

from repro.obs.metrics import HeldHandles

#: The closed event vocabulary.  Every kind maps to a victim-side
#: detection point:
#:
#: ``auth_success`` / ``auth_failure`` — KDC exchanges and Kerberized
#:   application servers accepting or rejecting a credential;
#: ``preauth_failure``  — a preauthentication proof that did not verify
#:   (a failed password-guessing probe, Section 9 discussion);
#: ``replay_detected``  — the Section 4.3 replay cache caught a reused
#:   authenticator, or a database transfer stood behind what the
#:   receiving database already holds;
#: ``acl_denial``       — the KDBM refused an administrative operation;
#: ``tampered_propagation`` — kpropd or a shard's range receiver
#:   rejected a transfer whose checksum did not verify;
#: ``overload_shed``    — admission control refused a request (queue
#:   full);
#: ``master_promoted``  — the realm supervisor (or an administrator)
#:   promoted a slave to master after sustained master death;
#: ``slave_rejoined``   — a demoted former master came back up and was
#:   readmitted to the propagation set as a slave;
#: ``shard_rebalanced`` — a hash range of the principal space moved to
#:   a different shard (ring epoch flipped) — a security event because
#:   the set of hosts authorized to answer for those principals changed.
AUDIT_KINDS = (
    "auth_success",
    "auth_failure",
    "preauth_failure",
    "replay_detected",
    "acl_denial",
    "tampered_propagation",
    "overload_shed",
    "master_promoted",
    "slave_rejoined",
    "shard_rebalanced",
)

#: Recorded-event ceiling; beyond it the log drops (and counts) rather
#: than growing without bound under a flood.
MAX_RECORDED_EVENTS = 100_000


class AuditError(Exception):
    """Audit misuse: unknown event kind."""


class AuditEvent(NamedTuple):
    """One security event, read out of the log's columns (immutable).
    ``trace_id`` is the propagated trace ID of the exchange that raised it
    ("" when the traffic carried no context — which is exactly what
    forged or replayed packets look like)."""

    seq: int
    time: float
    kind: str
    host: str
    principal: str
    trace_id: str
    detail: str

    def format(self) -> str:
        rid = f"  rid={self.trace_id}" if self.trace_id else ""
        who = f" principal={self.principal}" if self.principal else ""
        return (
            f"{self.time:>10.3f}  {self.kind:<20} host={self.host}"
            f"{who}{rid}"
            + (f"  {self.detail}" if self.detail else "")
        )


class AuditLog(HeldHandles):
    """The realm-wide append-only security-event log.

    One per :class:`~repro.netsim.network.Network` (``net.audit``);
    every detection point — KDC, replay caches, kpropd, the KDBM,
    Kerberized servers — emits into it.  Events are stamped on the
    network's simulated clock, so two same-seed runs produce identical
    logs.
    """

    def __init__(
        self, clock, metrics=None, max_events: int = MAX_RECORDED_EVENTS
    ) -> None:
        self.clock = clock
        #: The held ``audit.events_*`` handles are keyed (series, kind).
        self.metrics = metrics
        self.max_events = max_events
        # The kept events, one row each across these columns.
        self._seqs = array("q")
        self._times = array("d")
        self._kinds: List[str] = []
        self._hosts: List[str] = []
        self._whos: List[str] = []
        self._traces: List[str] = []
        self._details: List[str] = []
        self._columns = (
            self._seqs, self._times, self._kinds, self._hosts, self._whos,
            self._traces, self._details,
        )
        self._seq = itertools.count(1)
        #: One copy of each principal name the kept events carry.
        self._principals: Dict[str, str] = {}

    def _counter(self, series: str, kind: Optional[str] = None):
        """Bind ``series`` — its ``kind`` series, given one — the first
        time it is bumped."""
        handle = self._held[series, kind] = self._metrics.counter(
            series, None if kind is None else {"kind": kind}
        )
        return handle

    def emit(
        self,
        kind: str,
        host: str = "",
        principal: str = "",
        trace=None,
        detail: str = "",
    ) -> AuditEvent:
        """Record one event (a run of one).  ``trace`` may be a
        :class:`~repro.obs.tracing.TraceContext`, a trace-ID string, or
        None."""
        return self.emit_run(kind, host, (principal,), (trace,), (detail,))

    def emit_run(
        self, kind: str, host: str, principals, traces, details
    ) -> AuditEvent:
        """Record a non-empty run of events of one kind, from one host,
        now: one per ``(principals[i], traces[i], details[i])``, in
        order.  Returns the last."""
        if kind not in AUDIT_KINDS:
            raise AuditError(
                f"unknown audit kind {kind!r} (known: {', '.join(AUDIT_KINDS)})"
            )
        now, counts = self.clock.now(), {}
        for principal, trace, detail in zip(principals, traces, details):
            seq, trace_id = next(self._seq), str(getattr(trace, "trace_id", trace) or "")
            if len(self._kinds) < self.max_events:
                # A realm's events name its principals again and again.
                principal = self._principals.setdefault(principal, principal)
                self._seqs.append(seq)
                self._times.append(now)
                self._kinds.append(kind)
                self._hosts.append(host)
                self._whos.append(principal)
                self._traces.append(trace_id)
                self._details.append(detail)
                key = ("audit.events_total", kind)
            else:
                key = ("audit.events_dropped_total", None)
            counts[key] = counts.get(key, 0) + 1
        if self._metrics is not None:
            for key, count in counts.items():
                (self._held.get(key) or self._counter(*key)).inc(count)
        return AuditEvent(seq, now, kind, host, principal, trace_id, detail)

    # -- queries ------------------------------------------------------------

    def _read(self, column: List[str], value: Optional[str]) -> List[AuditEvent]:
        """The kept events whose ``column`` holds ``value`` (all of them
        for None), in seq order."""
        rows = zip(*self._columns)
        if value is not None:
            rows = (row for row, v in zip(rows, column) if v == value)
        return list(itertools.starmap(AuditEvent, rows))

    def events(self, kind: Optional[str] = None) -> List[AuditEvent]:
        return self._read(self._kinds, kind)

    def for_trace(self, trace_id: str) -> List[AuditEvent]:
        """Events raised by one traced exchange."""
        return self._read(self._traces, trace_id)

    def count(self, kind: Optional[str] = None) -> int:
        if kind is None:
            return len(self._kinds)
        return self._kinds.count(kind)

    def format(self) -> str:
        return "\n".join(e.format() for e in self.events())

    def to_dicts(self) -> List[dict]:
        """Plain-data form for JSON artifacts (stable field order)."""
        return [event._asdict() for event in self.events()]

    def clear(self) -> None:
        for column in self._columns:
            del column[:]
        self._principals.clear()

    def __len__(self) -> int:
        return len(self._kinds)


__all__ = [
    "AUDIT_KINDS",
    "AuditError",
    "AuditEvent",
    "AuditLog",
    "MAX_RECORDED_EVENTS",
]
