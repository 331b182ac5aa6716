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

from typing import Optional

from repro.database.db import Dump, KerberosDatabase
from repro.netsim.ports import KPROP_PORT
from repro.replication.messages import (
    DeltaBody,
    DeltaReply,
    DeltaStatus,
    PropKind,
    PropReply,
)
from repro.replication.receiver import Position, TransferReceiver


class Kpropd(TransferReceiver):
    """Receives database transfers (full dumps and deltas) and applies
    verified ones that do not take the slave copy backwards."""

    span = "kpropd.apply"
    bytes_metric = "kpropd.bytes_total"
    results_metric = "kpropd.updates_total"
    host_label = "slave"

    def __init__(
        self,
        database: KerberosDatabase,
        port: int = KPROP_PORT,
    ) -> None:
        super().__init__(database, port)
        if not database.readonly:
            raise ValueError("kpropd feeds a read-only slave database copy")
        #: Sim-clock time of the last *applied* update (full or delta);
        #: None before the first.  This — not the last attempted
        #: transfer — is the one staleness definition, shared with the
        #: master's ``repl.slave_lag_seconds`` gauge via ``applied_time``
        #: in replies.
        self.last_update_time: Optional[float] = None

    def on_attach(self) -> None:
        super().on_attach()
        # The applied journal position.  Volatile by design: it models
        # the historical kpropd's in-memory notion of where it is, so
        # each incarnation starts without it and its first delta
        # triggers a full-dump catch-up (the safe answer after losing
        # state).  The position that refuses a replay is the database's
        # own, on disk.
        self.applied_epoch: Optional[int] = None
        self.applied_seq: int = 0
        for result in ("applied", "rejected", "need_full"):
            self.metrics.counter(
                self.results_metric, {**self._labels, "result": result}
            )

    @property
    def updates_applied(self) -> int:
        return int(self.metrics.total(
            self.results_metric, result="applied", **self._labels
        ))

    @property
    def updates_rejected(self) -> int:
        return int(self.metrics.total(
            self.results_metric, result="rejected", **self._labels
        ))

    # -- position ---------------------------------------------------------

    def held(self) -> Position:
        """What the database copy itself records having loaded — durable,
        so it outlives a crash that empties ``applied_epoch``.  A copy
        that loaded nothing yet holds its provisioning position."""
        return self.db.position

    # -- full dumps (Figure 13) -------------------------------------------

    def apply_full(self, dump: Dump) -> bytes:
        records = self.db.apply_dump(dump)
        now = self._applied()
        self.applied_epoch = self.db.loaded_epoch
        self.applied_seq = self.db.loaded_seq
        return PropReply(
            ok=True,
            records=records,
            applied_time=now,
            text=f"loaded {records} records",
        ).to_bytes()

    # -- deltas -----------------------------------------------------------

    def apply_delta(self, body: DeltaBody) -> bytes:
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

        applied = self.db.apply_entries(body.entries)
        self.applied_seq = body.to_seq
        now = self._applied()
        self.metrics.counter(
            "kpropd.delta_entries_total", self._labels
        ).inc(applied)
        return DeltaReply(
            status=int(DeltaStatus.OK),
            applied_seq=self.applied_seq,
            applied_time=now,
            text=f"applied {applied} entries",
        ).to_bytes()

    def _applied(self) -> float:
        self.count("applied")
        self.last_update_time = self.host.clock.now()
        return self.last_update_time

    def _need_full(self, reason: str) -> bytes:
        return self.refuse(PropKind.DELTA, reason, DeltaStatus.NEED_FULL)

    def refusal(self, kind, status: DeltaStatus, reason: str) -> bytes:
        if kind == PropKind.DELTA:
            return DeltaReply(
                status=int(status),
                applied_seq=self.applied_seq,
                applied_time=0.0,
                text=reason,
            ).to_bytes()
        return PropReply(
            ok=False, records=0, applied_time=0.0, text=reason
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
