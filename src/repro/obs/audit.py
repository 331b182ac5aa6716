"""The security audit plane: structured, append-only event records.

The paper's operational story (Section 5.2: "All requests to the
administration server, whether successful or not, are logged") and the
auditable-authentication line of work (e.g. Time-Assisted Authentication,
arXiv:1702.04055) both treat security *events* — not just counters — as
a first-class observability plane: who failed to authenticate, where a
replay was caught, which propagation transfer arrived tampered.

:class:`AuditLog` is that plane for the whole realm: one append-only
list of :class:`AuditEvent` records, stamped on the simulated clock and
tagged with the propagated trace ID so an event can be joined back to
the exact exchange that raised it.  The event vocabulary is closed
(:data:`AUDIT_KINDS`) to keep the record stream — and the
``audit.events_total{kind}`` series — analyzable.

All emission goes through :meth:`AuditLog.emit`; constructing an
:class:`AuditEvent` anywhere else under ``src/repro`` is rejected by an
AST lint (``tests/obs/test_lint_audit.py``), the same way the
no-wallclock lint protects determinism.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional

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


@dataclass(frozen=True)
class AuditEvent:
    """One security event.  ``trace_id`` is the propagated trace ID of
    the exchange that raised it ("" when the traffic carried no context
    — which is exactly what forged or replayed packets look like)."""

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
        self._events: List[AuditEvent] = []
        self._seq = itertools.count(1)

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
        """Record one event.  ``trace`` may be a
        :class:`~repro.obs.tracing.TraceContext`, a trace-ID string, or
        None."""
        if kind not in AUDIT_KINDS:
            raise AuditError(
                f"unknown audit kind {kind!r} (known: {', '.join(AUDIT_KINDS)})"
            )
        trace_id = getattr(trace, "trace_id", trace) or ""
        event = AuditEvent(
            seq=next(self._seq),
            time=self.clock.now(),
            kind=kind,
            host=host,
            principal=principal,
            trace_id=str(trace_id),
            detail=detail,
        )
        if len(self._events) < self.max_events:
            self._events.append(event)
            key = ("audit.events_total", kind)
        else:
            key = ("audit.events_dropped_total", None)
        if self._metrics is not None:
            (self._held.get(key) or self._counter(*key)).inc()
        return event

    # -- queries ------------------------------------------------------------

    def events(self, kind: Optional[str] = None) -> List[AuditEvent]:
        if kind is None:
            return list(self._events)
        return [e for e in self._events if e.kind == kind]

    def for_trace(self, trace_id: str) -> List[AuditEvent]:
        """Events raised by one traced exchange."""
        return [e for e in self._events if e.trace_id == trace_id]

    def count(self, kind: Optional[str] = None) -> int:
        return len(self.events(kind))

    def format(self) -> str:
        return "\n".join(e.format() for e in self._events)

    def to_dicts(self) -> List[dict]:
        """Plain-data form for JSON artifacts (stable field order)."""
        return [
            {
                "seq": e.seq,
                "time": e.time,
                "kind": e.kind,
                "host": e.host,
                "principal": e.principal,
                "trace_id": e.trace_id,
                "detail": e.detail,
            }
            for e in self._events
        ]

    def clear(self) -> None:
        self._events.clear()

    def __len__(self) -> int:
        return len(self._events)


__all__ = [
    "AUDIT_KINDS",
    "AuditError",
    "AuditEvent",
    "AuditLog",
    "MAX_RECORDED_EVENTS",
]
