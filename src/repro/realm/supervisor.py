"""The realm supervisor: failure detection and automatic promotion.

The paper's deployment survives a master outage only because a human
notices: authentication keeps working off the slaves (Figure 10), but
administration stops (Figure 11) and stays stopped until an operator
rebuilds a master by hand.  This module closes that loop.

:class:`RealmSupervisor` is a monitoring daemon — an ordinary
:class:`~repro.core.service.Service` on its own host — that heartbeats
every KDC in the realm on the simulated clock.  A heartbeat is a real
AS exchange: a well-formed ``AS_REQ`` for a sentinel principal the
database does not contain, so a *live* KDC always answers (with a
principal-unknown error), while a dead, partitioned, or wedged one
answers nothing.  Probing through the front door means the supervisor
measures exactly what clients experience, not a side-channel's opinion.

On :data:`SupervisorConfig.failure_threshold` consecutive missed master
heartbeats the supervisor promotes the **freshest** healthy slave — the
one with the most recent applied-update time, i.e. the lowest
``repl.slave_lag_seconds`` — via
:meth:`~repro.realm.bootstrap.Realm.promote_slave` (journal epoch bump,
``demote_old=True``), then re-points client discovery
(:meth:`~repro.realm.bootstrap.Realm.repoint_clients`, including the
realm's Hesiod record if published).  The old master is rebuilt as a
slave at promotion time, so when it restarts it catches up through the
ordinary NEED_FULL → full dump → delta path; the supervisor keeps
probing it and emits a ``slave_rejoined`` audit event on its first
answered heartbeat.

Flapping protection: at most one promotion per
:data:`SupervisorConfig.dwell_time` simulated seconds — a realm that
lost two masters inside the dwell window needs an operator, not an
oscillator.

Observability: ``supervisor.heartbeats_total{target,result}``,
``realm.promotions_total{realm}``,
``realm.time_to_recover_seconds{realm}`` (first missed heartbeat →
promotion complete), ``supervisor.promotions_suppressed_total{realm}``,
plus ``master_promoted`` / ``slave_rejoined`` audit events joined to
the supervisor's trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set

from repro.core.messages import AsRequest, MessageType, encode_message
from repro.core.service import Service
from repro.netsim import IPAddress, NetworkError
from repro.netsim.ports import KERBEROS_PORT
from repro.principal import Principal, tgs_principal


@dataclass
class SupervisorConfig:
    """Tuning knobs for the failure detector.

    The defaults suit campus-scale drills: with 5-second heartbeats and
    a threshold of 3, a dead master is detected within 15 simulated
    seconds — comfortably inside a login-storm SLO — while a single
    lost probe (one miss) never triggers anything.
    """

    #: Seconds of simulated time between heartbeat rounds.
    heartbeat_interval: float = 5.0
    #: Consecutive missed master heartbeats before promotion.
    failure_threshold: int = 3
    #: Minimum simulated seconds between promotions (flap protection).
    dwell_time: float = 120.0
    #: How long one probe waits for an answer before counting a miss.
    probe_timeout: float = 2.0
    #: Sentinel principal name probed at each heartbeat; deliberately
    #: unregistered, so a live KDC answers with a typed error.
    probe_principal: str = "hbmon"
    #: False turns the supervisor into a pure detector (no promotion) —
    #: useful for drills that only want the heartbeat telemetry.
    promote: bool = True


class RealmSupervisor(Service):
    """Heartbeat failure detector + automatic slave promotion."""

    def __init__(
        self, realm, config: Optional[SupervisorConfig] = None
    ) -> None:
        super().__init__()
        self.realm = realm
        self.config = config if config is not None else SupervisorConfig()
        #: Consecutive missed heartbeats, per probed address.
        self.misses: Dict[IPAddress, int] = {}
        #: When each currently-suspect address first missed (sim time).
        self._suspect_since: Dict[IPAddress, float] = {}
        #: Old-master addresses demoted by a promotion, watched for
        #: their first answered heartbeat (→ ``slave_rejoined``).
        self._awaiting_rejoin: Set[IPAddress] = set()
        self._last_promotion_at = float("-inf")
        self._tick_event = None
        self.promotions = 0

    # -- lifecycle ----------------------------------------------------------

    def ports(self):
        # A pure client daemon: it probes, it never serves.
        return {}

    def on_attach(self) -> None:
        self._schedule_next()

    def on_detach(self) -> None:
        self._cancel_tick()

    def on_crash(self) -> None:
        # The monitor machine itself died; its timer state is volatile.
        self._cancel_tick()

    def on_restart(self) -> None:
        # Fresh detector state: stale suspicion from before the crash
        # must not trigger an instant promotion on reboot.
        self.misses.clear()
        self._suspect_since.clear()
        self._schedule_next()

    def _schedule_next(self) -> None:
        self._tick_event = self.host.network.runtime.after(
            self.config.heartbeat_interval, self._tick,
            label="supervisor.tick",
        )

    def _cancel_tick(self) -> None:
        if self._tick_event is not None:
            self.host.network.runtime.cancel(self._tick_event)
            self._tick_event = None

    # -- the heartbeat round ------------------------------------------------

    def _tick(self) -> None:
        self._tick_event = None
        if self.host is None or not self.host.up:
            return
        with self.tracer.span("supervisor.tick", host=self.host.name):
            self._round()
        self._schedule_next()

    def _round(self) -> None:
        """Heartbeat every shard's master and slaves.  Failure detection
        and promotion are shard-scoped: a dead shard-2 master triggers a
        promotion *within shard 2* and repoints only that shard's
        discovery records."""
        realm = self.realm
        for site in realm.shards:
            master_addr = site.master_host.address
            targets = [(master_addr, site.master_host.name, "master")] + [
                (s.host.address, s.host.name, "slave") for s in site.slaves
            ]
            for address, name, role in targets:
                alive = self._probe(address)
                self.metrics.counter(
                    "supervisor.heartbeats_total",
                    {"target": name, "result": "ok" if alive else "miss"},
                ).inc()
                if alive:
                    self.misses[address] = 0
                    self._suspect_since.pop(address, None)
                    if address in self._awaiting_rejoin:
                        self._awaiting_rejoin.discard(address)
                        self.audit.emit(
                            "slave_rejoined",
                            host=name,
                            trace=self.tracer.propagation_context(),
                            detail=(
                                "demoted former master answered its first "
                                "heartbeat; catching up as a slave"
                            ),
                        )
                else:
                    self.misses[address] = self.misses.get(address, 0) + 1
                    self._suspect_since.setdefault(
                        address, self.host.clock.now()
                    )
            if (
                self.config.promote
                and self.misses.get(master_addr, 0)
                >= self.config.failure_threshold
            ):
                self._promote(master_addr, shard=site.id)

    def _probe(self, address: IPAddress) -> bool:
        """One front-door heartbeat: any reply — including a typed error
        for the sentinel principal — means the KDC is serving."""
        request = AsRequest(
            client=Principal(
                self.config.probe_principal, "", self.realm.name
            ),
            service=tgs_principal(self.realm.name),
            requested_life=60.0,
            timestamp=self.host.clock.now(),
        )
        wire = encode_message(MessageType.AS_REQ, request)
        try:
            self.host.network.rpc(
                self.host, address, KERBEROS_PORT, wire,
                timeout=self.config.probe_timeout,
            )
            return True
        except NetworkError:
            return False

    # -- promotion ----------------------------------------------------------

    def _promote(self, master_addr: IPAddress, shard: int = 0) -> None:
        now = self.host.clock.now()
        realm = self.realm
        shard_site = realm.shards[shard]
        if now - self._last_promotion_at < self.config.dwell_time:
            self.metrics.counter(
                "supervisor.promotions_suppressed_total",
                {"realm": realm.name},
            ).inc()
            return
        # The freshest *healthy* slave of the failed shard: most recent
        # applied-update time as reported to the dying master's kprop
        # (the same definition as repl.slave_lag_seconds), index as a
        # deterministic tie-break.  A slave currently missing heartbeats
        # is not a candidate, however fresh its copy.
        candidates = [
            (index, site)
            for index, site in enumerate(shard_site.slaves)
            if self.misses.get(site.host.address, 0) == 0
        ]
        if not candidates:
            self.metrics.counter(
                "supervisor.promotions_suppressed_total",
                {"realm": realm.name},
            ).inc()
            return
        applied = shard_site.kprop.last_applied_time
        index, site = max(
            candidates,
            key=lambda pair: (
                applied.get(pair[1].host.address, float("-inf")),
                -pair[0],
            ),
        )
        old_master_name = shard_site.master_host.name
        missed = self.misses.get(master_addr, 0)
        suspect_since = self._suspect_since.get(master_addr, now)
        with self.tracer.span(
            "supervisor.promote",
            host=self.host.name,
            old_master=old_master_name,
            new_master=site.host.name,
        ):
            realm.promote_slave(index, demote_old=True, shard=shard)
            # Shard-scoped repoint: only the failed shard's Hesiod
            # record is rewritten; other shards' discovery is untouched.
            realm.repoint_clients(
                shard=shard if realm.ring is not None else None
            )
            ttr = self.host.clock.now() - suspect_since
            self.metrics.counter(
                "realm.promotions_total", {"realm": realm.name}
            ).inc()
            self.metrics.gauge(
                "realm.time_to_recover_seconds", {"realm": realm.name}
            ).set(ttr)
            self.audit.emit(
                "master_promoted",
                host=site.host.name,
                trace=self.tracer.propagation_context(),
                detail=(
                    f"promoted {site.host.name} after {old_master_name} "
                    f"missed {missed} heartbeats; ttr={ttr:.3f}s"
                ),
            )
        self.promotions += 1
        self._last_promotion_at = self.host.clock.now()
        # The old master is now the realm's newest slave; watch it for
        # its comeback, and judge it fresh from a clean slate.
        self._awaiting_rejoin.add(master_addr)
        self.misses.pop(master_addr, None)
        self._suspect_since.pop(master_addr, None)


__all__ = ["RealmSupervisor", "SupervisorConfig"]
