"""kprop: the master-side propagation program (paper Figure 13, plus deltas).

The administrator "must arrange that the programs to propagate database
updates from master to slaves be kicked off periodically" (Section 6.3).
Two cadences coexist, both driven by the realm
(:meth:`~repro.realm.Realm.schedule_propagation`,
:meth:`~repro.realm.Realm.schedule_incremental`): the paper's hourly
*full* dump ("The master database is dumped every hour"), kept as the
safety net and the catch-up path, and a fast cadence (seconds) that
ships only the journal entries each slave has not yet applied,
shrinking the slave-staleness window from "up to an hour" to the
incremental interval at a per-round cost proportional to churn, not
database size.

The master keeps a per-slave high-water mark ``(epoch, seq)``;
:meth:`propagate` chooses full vs. delta per slave and falls back to a
full dump whenever the slave answers ``NEED_FULL`` (gap, epoch mismatch,
crash-restart) or the journal has compacted past the slave's position.
Every transfer — a round's, or a range move's out of this shard — is
made the master's by :meth:`Kprop.seal` and shipped by :meth:`Kprop.send`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Tuple

from repro.core.retry import RetryExhausted, RetryPolicy, run_with_failover
from repro.database.db import KerberosDatabase
from repro.netsim import Host, IPAddress, NetworkError
from repro.netsim.ports import KPROP_PORT
from repro.obs import LATENCY_BUCKETS
from repro.replication.messages import (
    DeltaBody,
    DeltaReply,
    DeltaStatus,
    DeltaTransfer,
    PropKind,
    PropReply,
    PropTransfer,
    encode_prop_message,
)


@dataclass
class PropagationResult:
    """Outcome of one propagation round: a kprop's, or a realm's (its
    shards' rounds merged, see :meth:`repro.realm.Realm.propagate`)."""

    time: float
    attempted: int
    succeeded: int
    failures: Dict[str, str] = dc_field(default_factory=dict)
    #: Per-slave transfer mode this round: "full", "delta", or
    #: "delta+full" (a delta was refused and a full dump followed).
    modes: Dict[str, str] = dc_field(default_factory=dict)

    @property
    def all_ok(self) -> bool:
        return self.succeeded == self.attempted

    @property
    def deltas(self) -> int:
        return sum(1 for m in self.modes.values() if m == "delta")

    @property
    def fulls(self) -> int:
        return sum(1 for m in self.modes.values() if m != "delta")


class Kprop:
    """Pushes the master database to every slave — in full (Figure 13)
    or as journal deltas, per slave."""

    def __init__(
        self,
        database: KerberosDatabase,
        host: Host,
        slave_addresses,
        port: int = KPROP_PORT,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        if database.readonly:
            raise ValueError("kprop runs on the master, against the master database")
        self.db = database
        self.host = host
        self.port = port
        self.slaves: List[IPAddress] = [IPAddress(a) for a in slave_addresses]
        self.metrics = host.network.metrics
        self.tracer = host.network.tracer
        #: Per-slave applied position ``(epoch, seq)`` as last reported;
        #: absent until the first successful full dump.
        self.high_water: Dict[IPAddress, Tuple[int, int]] = {}
        #: Per-slave ``applied_time`` from the last successful transfer
        #: (the slave's own clock reading) — the basis of the
        #: ``repl.slave_lag_seconds`` gauge, so master and slave agree
        #: on one staleness definition.
        self.last_applied_time: Dict[IPAddress, float] = {}
        #: One attempt per slave per round by default (the historical
        #: behaviour: a missed slave simply catches up next hour); a
        #: policy adds per-transfer retransmission on lossy links.
        self.retry_policy = (
            retry_policy
            if retry_policy is not None
            else RetryPolicy(max_attempts=1)
        )
        self._retry_rng = random.Random(f"kprop:{host.name}")

    def add_slave(self, address) -> None:
        self.slaves.append(IPAddress(address))

    # -- rounds -----------------------------------------------------------

    def propagate(self, full: bool = False) -> PropagationResult:
        """One round: choose full vs. delta per slave, send, collect
        outcomes.  A dead slave does not block the others (it simply
        misses this round and catches up on the next).  ``full=True``
        forces the Figure 13 full dump to every slave (the hourly
        safety-net cadence)."""
        with self.tracer.span(
            "kprop.round",
            master=self.host.name,
            host=self.host.name,
            slaves=len(self.slaves),
        ) as span:
            result = self._propagate_inner(force_full=full)
        self.metrics.histogram(
            "kprop.round_seconds", LATENCY_BUCKETS,
            {"master": self.host.name},
        ).observe(span.duration)
        return result

    def _propagate_inner(self, force_full: bool) -> PropagationResult:
        now = self.host.clock.now()
        labels = {"master": self.host.name}
        self.metrics.counter("kprop.rounds_total", labels).inc()
        # The full transfer is built lazily, once per round, and shared
        # by every slave that needs it.
        full_wire: Optional[bytes] = None

        def full_transfer() -> bytes:
            nonlocal full_wire
            if full_wire is None:
                full_wire = self.seal(PropKind.FULL, self.db.dump(now=now))
            return full_wire

        # So are the deltas: slaves at one high-water mark — the steady
        # state — share one build, one encoding and one checksum.
        deltas: Dict[tuple, Optional[bytes]] = {}
        result = PropagationResult(time=now, attempted=len(self.slaves), succeeded=0)
        for address in self.slaves:
            delta_wire = (
                None if force_full
                else self._delta_wire_for(address, now, deltas)
            )
            try:
                if delta_wire is not None:
                    ok = self._send_delta(address, delta_wire, result, labels)
                    if ok is None:  # NEED_FULL: fall back within the round
                        result.modes[str(address)] = "delta+full"
                        self._send_full(address, full_transfer(), result, labels)
                else:
                    result.modes[str(address)] = "full"
                    self._send_full(address, full_transfer(), result, labels)
            except RetryExhausted as exc:
                result.failures[str(address)] = f"unreachable: {exc.last_error}"
                self._outcome(labels, "unreachable")
            self._update_lag_gauge(address, now)
        self.metrics.gauge("repl.journal_depth", labels).set(
            self.db.journal.depth()
        )
        return result

    # -- per-slave transfers ----------------------------------------------

    def _delta_wire_for(
        self, address: IPAddress, now: float, built: Dict[tuple, Optional[bytes]]
    ) -> Optional[bytes]:
        """The encoded delta for one slave, or None when only a full dump
        can serve it (no high-water mark, epoch moved on, or the journal
        compacted past its position).  ``built`` is the round's memo:
        one wire per ``(epoch, from_seq)`` — and per journal position,
        so a write landing mid-round (a transfer pumps the event loop)
        still reaches the slaves after it."""
        journal = self.db.journal
        mark = self.high_water.get(address)
        if mark is None or mark[0] != journal.epoch:
            return None
        key = (mark, journal.last_seq)
        if key not in built:
            entries = journal.entries_since(mark[1])
            built[key] = None if entries is None else self.seal(
                PropKind.DELTA,
                DeltaBody(
                    epoch=journal.epoch,
                    from_seq=mark[1],
                    to_seq=entries[-1].seq if entries else mark[1],
                    time=now,
                    entries=entries,
                ).to_bytes(),
            )
        return built[key]

    def seal(self, kind: PropKind, body: bytes) -> bytes:
        """The wire form of one transfer: ``body`` under the master-key
        MAC, behind the kind envelope.  The only place a transfer is
        made the master's; a round seals once per distinct body and
        every slave needing it is sent the same bytes."""
        mac = self.db.master_key.checksum(body)
        return encode_prop_message(
            kind,
            PropTransfer(checksum=mac, dump=body) if kind == PropKind.FULL
            else DeltaTransfer(checksum=mac, body=body),
        )

    def send(self, address: IPAddress, wire: bytes, port: Optional[int] = None) -> bytes:
        """Ship a sealed transfer under this sender's retry policy and
        return the receiver's reply; :class:`RetryExhausted` when every
        attempt was lost."""
        port = self.port if port is None else port
        raw, _, _ = run_with_failover(
            self.retry_policy,
            self.host.network.runtime,
            [address],
            lambda addr: self.host.rpc(addr, port, wire),
            rng=self._retry_rng,
            metrics=self.metrics,
            op="kprop",
            retry_on=(NetworkError,),
        )
        return raw

    def _send_delta(
        self,
        address: IPAddress,
        wire: bytes,
        result: PropagationResult,
        labels: Dict[str, str],
    ) -> Optional[bool]:
        """Returns True on success, None when the slave wants a full
        dump, and records a failure otherwise."""
        reply = DeltaReply.from_bytes(self.send(address, wire))
        status = DeltaStatus(reply.status)
        if status == DeltaStatus.NEED_FULL:
            self.high_water.pop(address, None)
            self.metrics.counter(
                "repl.delta_fallbacks_total", labels
            ).inc()
            return None
        if status == DeltaStatus.REJECTED:
            result.modes[str(address)] = "delta"
            result.failures[str(address)] = reply.text
            self._outcome(labels, "rejected")
            return False
        result.modes[str(address)] = "delta"
        result.succeeded += 1
        self.high_water[address] = (self.db.journal.epoch, reply.applied_seq)
        self.last_applied_time[address] = reply.applied_time
        self.metrics.counter("repl.delta_bytes_total", labels).inc(len(wire))
        self.metrics.counter("kprop.bytes_total", labels).inc(len(wire))
        self._outcome(labels, "ok")
        return True

    def _send_full(
        self,
        address: IPAddress,
        wire: bytes,
        result: PropagationResult,
        labels: Dict[str, str],
    ) -> bool:
        reply = PropReply.from_bytes(self.send(address, wire))
        self.metrics.counter("kprop.bytes_total", labels).inc(len(wire))
        self.metrics.counter("repl.full_dumps_total", labels).inc()
        if not reply.ok:
            result.failures[str(address)] = reply.text
            self._outcome(labels, "rejected")
            return False
        result.succeeded += 1
        journal = self.db.journal
        self.high_water[address] = (journal.epoch, journal.last_seq)
        self.last_applied_time[address] = reply.applied_time
        self._outcome(labels, "ok")
        return True

    def _outcome(self, labels: Dict[str, str], result: str) -> None:
        self.metrics.counter(
            "kprop.transfers_total", {**labels, "result": result}
        ).inc()

    def _update_lag_gauge(self, address: IPAddress, now: float) -> None:
        """``repl.slave_lag_seconds``: sim-clock time since this slave's
        last *applied* update, by the slave's own report — the same
        definition as :meth:`Kpropd.staleness`.  Unset until the slave
        has applied at least once."""
        applied = self.last_applied_time.get(address)
        if applied is not None:
            self.metrics.gauge(
                "repl.slave_lag_seconds",
                {"master": self.host.name, "slave": str(address)},
            ).set(now - applied)
