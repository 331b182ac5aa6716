"""The one way into a database: verified, positioned transfers.

*"It is essential that only information from the master host be accepted
by the slaves, and that tampering of data be detected"* (Section 5.3).
Full dumps, journal deltas and range-move chunks all arrive as a
master-key MAC over a body behind the one-byte kind envelope, so one
base class, :class:`TransferReceiver`, decodes, verifies and audits all
three, and enforces the rule the MAC alone does not: **a database never
moves backwards**.  A validly MAC'd transfer stays valid forever, so a
recording of yesterday's dump is still "from the master"; what gives it
away is its position — the ``(epoch, seq)`` every transfer already
carries — being behind what the receiving database holds.  Such a
transfer is refused and audited ``replay_detected``.

Subclasses say what they hold (:meth:`TransferReceiver.held`), how to
apply a transfer, and what their refusal looks like on the wire:
:class:`~repro.replication.kpropd.Kpropd` for a slave copy,
:class:`RangeReceiver` for a shard master taking in a hash range.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.service import Service
from repro.database.db import DatabaseError, KerberosDatabase, MASTER_VERIFY_KEY
from repro.database.journal import OP_DELETE, OP_PUT
from repro.encode import DecodeError
from repro.netsim.ports import SHARD_PORT
from repro.replication.messages import (
    DeltaBody,
    DeltaReply,
    DeltaStatus,
    PropKind,
    decode_prop_message,
)

Position = Tuple[int, int]


class TransferReceiver(Service):
    """Base of every daemon that lets transfers into a database.

    Owns the port handler and its span, the byte and result counters,
    the rejection log, the envelope decode, the single master-key
    ``verify_checksum`` call, the ``tampered_propagation`` audit and the
    position rule with its ``replay_detected`` audit.  A subclass
    supplies :meth:`held`, ``apply_full(dump)`` (a decoded ``Dump``) and/or
    ``apply_delta(body)`` (each returns the reply for an applied
    transfer, or :meth:`refuse`s it), and ``refusal(kind, status,
    reason)`` — its reply that says no (``kind`` is None when the
    envelope itself did not decode).  Two refusals exist: ``REJECTED``
    (the bytes did not verify, decode or apply) and ``NEED_FULL`` (a
    delta out of position: start over from a complete transfer); a full
    dump has no softer answer than rejected.
    """

    #: Span name, byte counter, result counter, and the label naming
    #: this host in both series.
    span = bytes_metric = results_metric = host_label = ""
    #: The transfer kinds this port applies.
    accepts: Tuple[PropKind, ...] = (PropKind.FULL, PropKind.DELTA)

    def __init__(self, database: KerberosDatabase, port: int) -> None:
        super().__init__()
        self.db = database
        self.port = port
        self.rejection_log: List[str] = []

    def ports(self):
        return {self.port: self._handle}

    def on_attach(self) -> None:
        self._labels = labels = {self.host_label: self.host.name}
        self._bytes = self.metrics.family("counter", self.bytes_metric, (), labels)
        self._results = self.metrics.family(
            "counter", self.results_metric, ("result",), labels
        )

    def held(self) -> Position:
        """The position this database already holds — compared with a
        dump header's ``(epoch, seq)`` or a delta's ``(epoch,
        from_seq)``."""
        raise NotImplementedError

    def behind(self, position: Position) -> Optional[str]:
        """Why a transfer at ``position`` is a replay; None if it is not."""
        held = self.held()
        if position < held:
            return f"behind this database's {held}"
        return None

    def _handle(self, datagram) -> bytes:
        self._bytes[()].inc(len(datagram.payload))
        with self.tracer.span(
            self.span, under=datagram.trace, host=self.host.name
        ):
            try:
                kind, transfer = decode_prop_message(datagram.payload)
            except DecodeError as exc:
                return self.refuse(None, f"undecodable transfer: {exc}")
            full = kind == PropKind.FULL
            body = transfer.dump if full else transfer.body
            # The paper's core check: recompute the keyed checksum over
            # the received bytes.  Only a holder of the master database
            # key can produce a matching one.
            if not self.db.master_key.verify_checksum(body, transfer.checksum):
                self._audit(
                    "tampered_propagation", datagram,
                    f"{kind.name.lower()} transfer checksum mismatch",
                )
                return self.refuse(
                    kind, "checksum mismatch: transfer tampered with or "
                    "not from the master",
                )
            if kind not in self.accepts:
                return self.refuse(
                    kind, f"this port takes no {kind.name.lower()} transfers"
                )
            try:
                if full:
                    body = KerberosDatabase.read_dump(body)
                    position = (body.epoch, body.seq)
                else:
                    body = DeltaBody.from_bytes(body)
                    position = (body.epoch, body.from_seq)
                behind = self.behind(position)
                if behind is not None:
                    reason = f"{kind.name.lower()} transfer at {position}: {behind}"
                    self._audit("replay_detected", datagram, reason)
                    return self.refuse(
                        kind, reason,
                        DeltaStatus.REJECTED if full else DeltaStatus.NEED_FULL,
                    )
                return self.apply_full(body) if full else self.apply_delta(body)
            except (DecodeError, DatabaseError) as exc:
                return self.refuse(kind, f"transfer rejected: {exc}")

    def _audit(self, event: str, datagram, detail: str) -> None:
        self.audit.emit(
            event, host=self.host.name, trace=datagram.trace, detail=detail
        )

    def count(self, result: str) -> None:
        self._results[result].inc()

    def refuse(
        self, kind: Optional[PropKind], reason: str, status=DeltaStatus.REJECTED
    ) -> bytes:
        self.count(status.name.lower())
        if status == DeltaStatus.REJECTED:
            self.rejection_log.append(reason)
        return self.refusal(kind, status, reason)


class RangeReceiver(TransferReceiver):
    """The shard-master daemon that takes in a streamed hash range.

    A range move (:func:`repro.realm.sharding.move_range`) streams the
    range's records as journal-entry chunks — delta transfers, to
    :data:`~repro.netsim.ports.SHARD_PORT` — which are applied through
    the target database's *journaled* write path, so the target's own
    slaves replicate them by ordinary delta propagation.  A chunk's
    position is ``(ring epoch, from_seq)``: it is applied only while a
    move is open (:meth:`open` … :meth:`close`, the double-serve window)
    at the live ring's epoch, and only as the next chunk in order.  The
    flip that ends a move bumps the ring epoch, so every chunk of a
    finished move is behind from then on.
    """

    span = "shard.range_apply"
    bytes_metric = "shard.range_bytes_total"
    results_metric = "shard.range_transfers_total"
    host_label = "server"
    accepts = (PropKind.DELTA,)

    def __init__(
        self, database: KerberosDatabase, membership, port: int = SHARD_PORT
    ) -> None:
        super().__init__(database, port)
        if database.readonly:
            raise ValueError(
                "a range receiver ingests into the shard master's "
                "writable database"
            )
        #: The shard's :class:`~repro.realm.sharding.ShardMembership`:
        #: the live ring and the double-serve windows.
        self.membership = membership
        #: ``from_seq`` of the next chunk of the open move.
        self.next_seq = 0

    def open(self, window: Tuple[int, int]) -> None:
        """A move into this shard begins: double-serve ``window`` and
        expect the stream from its start."""
        self.membership.extra_ranges.append(window)
        self.next_seq = 0

    def close(self, window: Tuple[int, int]) -> None:
        self.membership.extra_ranges.remove(window)

    def held(self) -> Position:
        return self.membership.ring.epoch, self.next_seq

    def behind(self, position: Position) -> Optional[str]:
        if not self.membership.extra_ranges:
            return "no range move is open, so nothing is to come"
        return super().behind(position)

    def apply_delta(self, body: DeltaBody) -> bytes:
        if (body.epoch, body.from_seq) != self.held():
            return self.refuse(
                PropKind.DELTA,
                f"chunk at {(body.epoch, body.from_seq)} is ahead of "
                f"the open move's {self.held()}",
                DeltaStatus.NEED_FULL,
            )
        now = self.host.clock.now()
        for entry in body.entries:
            if entry.key == MASTER_VERIFY_KEY:
                continue  # every shard already holds its own K.M
            if entry.op == OP_PUT:
                self.db.import_record(entry.key, entry.value, now=now)
            elif entry.op == OP_DELETE:
                self.db.remove_record(entry.key, now=now)
        self.next_seq = body.to_seq
        self.count("applied")
        return DeltaReply(
            status=int(DeltaStatus.OK),
            applied_seq=body.to_seq,
            applied_time=now,
            text="",
        ).to_bytes()

    def refusal(self, kind, status: DeltaStatus, reason: str) -> bytes:
        return DeltaReply(
            status=int(status),
            applied_seq=self.next_seq,
            applied_time=0.0,
            text=reason,
        ).to_bytes()
