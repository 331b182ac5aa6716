"""kpropd: the slave-side propagation daemon (paper Figure 13).

*"The slave propagation server calculates a checksum of the data it has
received, and if it matches the checksum sent by the master, the new
information is used to update the slave's database."*  A bad checksum —
tampering in transit, or an imposter master without the master key —
rejects the transfer and leaves the previous database in place.

Beyond the paper's full dump, this daemon applies *delta* transfers:
journal entries from the master's update journal, verified under the
same master-key checksum, applied strictly in order.  A delta whose
``(epoch, from_seq)`` does not match the slave's applied position — a
gap, a different journal history, or a crash-restart that lost the
position — is answered ``NEED_FULL``, and the master falls back to the
Figure 13 full dump.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.service import Service
from repro.database.db import DatabaseError, KerberosDatabase
from repro.encode import DecodeError
from repro.netsim.ports import KPROP_PORT
from repro.replication.messages import (
    DeltaBody,
    DeltaReply,
    DeltaStatus,
    DeltaTransfer,
    PropKind,
    PropReply,
    PropTransfer,
    decode_prop_message,
)


class Kpropd(Service):
    """Receives database transfers (full dumps and deltas) and applies
    verified ones."""

    def __init__(
        self,
        database: KerberosDatabase,
        port: int = KPROP_PORT,
    ) -> None:
        super().__init__()
        if not database.readonly:
            raise ValueError("kpropd feeds a read-only slave database copy")
        self.db = database
        self.port = port
        #: Sim-clock time of the last *applied* update (full or delta);
        #: None before the first.  This — not the last attempted
        #: transfer — is the one staleness definition, shared with the
        #: master's ``repl.slave_lag_seconds`` gauge via ``applied_time``
        #: in replies.
        self.last_update_time: Optional[float] = None
        self.rejection_log: List[str] = []
        # The applied journal position.  Volatile by design: it models
        # the historical kpropd's in-memory notion of where it is, so a
        # crash-restart forgets it and the next delta triggers a
        # full-dump catch-up (the safe answer after losing state).
        self.applied_epoch: Optional[int] = None
        self.applied_seq: int = 0

    def ports(self):
        return {self.port: self._handle}

    def on_attach(self) -> None:
        self._labels = {"slave": self.host.name}
        for result in ("applied", "rejected", "need_full"):
            self.metrics.counter(
                "kpropd.updates_total", {**self._labels, "result": result}
            )

    def on_crash(self) -> None:
        """The machine went down: the in-memory applied position is lost.
        The database store itself is durable, but without the position a
        delta cannot be safely applied — the next one is answered
        NEED_FULL and the master sends a full dump."""
        self.applied_epoch = None
        self.applied_seq = 0

    @property
    def updates_applied(self) -> int:
        return int(self.metrics.total(
            "kpropd.updates_total", result="applied", **self._labels
        ))

    @property
    def updates_rejected(self) -> int:
        return int(self.metrics.total(
            "kpropd.updates_total", result="rejected", **self._labels
        ))

    # -- dispatch ---------------------------------------------------------

    def _handle(self, datagram) -> bytes:
        self.metrics.counter("kpropd.bytes_total", self._labels).inc(
            len(datagram.payload)
        )
        with self.tracer.span_under(
            datagram.trace, "kpropd.apply", host=self.host.name
        ):
            try:
                kind, transfer = decode_prop_message(datagram.payload)
            except DecodeError as exc:
                return self._reject(f"undecodable transfer: {exc}")
            if kind == PropKind.FULL:
                return self._handle_full(transfer, trace=datagram.trace)
            return self._handle_delta(transfer, trace=datagram.trace)

    # -- full dumps (Figure 13) -------------------------------------------

    def _handle_full(self, transfer: PropTransfer, trace=None) -> bytes:
        # The paper's core check: recompute the keyed checksum over the
        # received bytes and compare.  Only the holder of the master
        # database key can produce a matching one.
        if not self.db.master_key.verify_checksum(transfer.dump, transfer.checksum):
            self._audit_tamper("full dump checksum mismatch", trace)
            return self._reject(
                "checksum mismatch: transfer tampered with or not from the master"
            )

        try:
            records = self.db.load_dump(transfer.dump)
        except DatabaseError as exc:
            return self._reject(f"dump rejected: {exc}")

        now = self.host.clock.now()
        self._applied(now)
        self.applied_epoch = self.db.loaded_epoch
        self.applied_seq = self.db.loaded_seq
        return PropReply(
            ok=True,
            records=records,
            applied_time=now,
            text=f"loaded {records} records",
        ).to_bytes()

    def _audit_tamper(self, detail: str, trace) -> None:
        """A failed keyed checksum is the one rejection that implies an
        attacker (or corruption) rather than mere staleness."""
        self.audit.emit(
            "tampered_propagation",
            host=self.host.name,
            trace=trace,
            detail=detail,
        )

    def _reject(self, reason: str) -> bytes:
        self.metrics.counter(
            "kpropd.updates_total", {**self._labels, "result": "rejected"}
        ).inc()
        self.rejection_log.append(reason)
        return PropReply(
            ok=False, records=0, applied_time=0.0, text=reason
        ).to_bytes()

    # -- deltas -----------------------------------------------------------

    def _handle_delta(self, transfer: DeltaTransfer, trace=None) -> bytes:
        # Same trust model as the full dump: the master-key MAC over the
        # body is the only thing that makes these bytes the master's.
        if not self.db.master_key.verify_checksum(transfer.body, transfer.checksum):
            self._audit_tamper("delta checksum mismatch", trace)
            return self._reject_delta(
                "checksum mismatch: delta tampered with or not from the master"
            )
        try:
            body = DeltaBody.from_bytes(transfer.body)
        except DecodeError as exc:
            return self._reject_delta(f"undecodable delta body: {exc}")

        if self.applied_epoch is None or self.applied_epoch != body.epoch:
            return self._need_full(
                f"epoch mismatch: slave has {self.applied_epoch}, "
                f"delta is for {body.epoch}"
            )
        if body.from_seq != self.applied_seq:
            return self._need_full(
                f"sequence gap: slave applied up to {self.applied_seq}, "
                f"delta starts after {body.from_seq}"
            )
        expected = body.from_seq
        for entry in body.entries:
            if entry.seq != expected + 1:
                return self._need_full(
                    f"non-contiguous entries: {entry.seq} after {expected}"
                )
            expected = entry.seq
        if expected != body.to_seq:
            return self._need_full(
                f"entry run ends at {expected}, body claims {body.to_seq}"
            )

        try:
            applied = self.db.apply_entries(body.entries)
        except DatabaseError as exc:
            return self._reject_delta(f"delta rejected: {exc}")

        now = self.host.clock.now()
        self.applied_seq = body.to_seq
        self._applied(now)
        self.metrics.counter(
            "kpropd.delta_entries_total", self._labels
        ).inc(applied)
        return DeltaReply(
            status=int(DeltaStatus.OK),
            applied_seq=self.applied_seq,
            applied_time=now,
            text=f"applied {applied} entries",
        ).to_bytes()

    def _applied(self, now: float) -> None:
        self.metrics.counter(
            "kpropd.updates_total", {**self._labels, "result": "applied"}
        ).inc()
        self.last_update_time = now

    def _reject_delta(self, reason: str) -> bytes:
        self.metrics.counter(
            "kpropd.updates_total", {**self._labels, "result": "rejected"}
        ).inc()
        self.rejection_log.append(reason)
        return DeltaReply(
            status=int(DeltaStatus.REJECTED),
            applied_seq=self.applied_seq,
            applied_time=0.0,
            text=reason,
        ).to_bytes()

    def _need_full(self, reason: str) -> bytes:
        self.metrics.counter(
            "kpropd.updates_total", {**self._labels, "result": "need_full"}
        ).inc()
        return DeltaReply(
            status=int(DeltaStatus.NEED_FULL),
            applied_seq=self.applied_seq,
            applied_time=0.0,
            text=reason,
        ).to_bytes()

    # -- staleness --------------------------------------------------------

    def staleness(self, now: float) -> float:
        """Seconds of sim-clock time since the last *applied* update
        (inf if never updated) — the slave's maximum data age, the
        consistency window the paper accepts ("very simple methods
        suffice for dealing with inconsistency").  An applied empty
        delta counts: it confirms the slave was current at that time.
        Attempted-but-rejected transfers do not."""
        if self.last_update_time is None:
            return float("inf")
        return now - self.last_update_time
