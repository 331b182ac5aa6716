"""Workload generation for deployment-scale experiments (paper Section 9).

The paper's deployment facts — 5,000 users, 650 workstations, 65
servers — become parameters here.  :class:`AthenaWorkload` populates a
realm at a chosen registered scale and drives seeded, repeatable
activity against it: login storms, Zipf-flavoured service traffic, and
open-loop login bursts.  The Section 9 benchmark, the scale tests and
every scenario campaign's population are built on this module.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import List, Tuple

from repro.core.errors import ErrorCode
from repro.core.locator import StaticLocator
from repro.core.messages import AsRequest, MessageType, decode_message, encode_message
from repro.netsim import HostDown
from repro.netsim.ports import KERBEROS_PORT
from repro.principal import Principal, tgs_principal
from repro.realm import Realm, Workstation


@dataclass
class WorkloadStats:
    """What a driven workload did, for the benchmark tables.

    Populated from the network's metrics registry (the single source of
    truth); the fields are a snapshot-delta over one driver run.
    """

    logins: int = 0
    service_uses: int = 0
    kdc_messages: int = 0
    failures: int = 0

    @property
    def kdc_requests_per_use(self) -> float:
        return self.kdc_messages / self.service_uses if self.service_uses else 0.0


@dataclass
class BurstResult:
    """Outcome of one open-loop :meth:`AthenaWorkload.login_burst`."""

    posted: int = 0
    completed: int = 0        # AS_REP came back
    overloaded: int = 0       # typed KDC_OVERLOADED error reply
    timed_out: int = 0        # lost or unanswered (plain Unreachable)
    host_down: int = 0        # destination KDC was crashed (HostDown)
    makespan: float = 0.0     # sim-seconds from first arrival to drain
    digest: str = ""          # order-sensitive run fingerprint

    @property
    def failed(self) -> int:
        """All non-completions other than typed overload shedding."""
        return self.timed_out + self.host_down

    @property
    def throughput(self) -> float:
        """Completed logins per simulated second of busy hour."""
        return self.completed / self.makespan if self.makespan else 0.0


class AthenaWorkload:
    """A population of users and services plus seeded activity drivers."""

    def __init__(
        self,
        realm: Realm,
        n_users: int,
        n_services: int,
        seed: int = 1988,
    ) -> None:
        self.realm = realm
        self.rng = random.Random(seed)
        self.users: List[Tuple[str, str]] = []
        self.services: List[Principal] = []
        for i in range(n_users):
            username = f"user{i:05d}"
            password = f"password-{i}"
            realm.add_user(username, password)
            self.users.append((username, password))
        for i in range(n_services):
            service, _ = realm.add_service("svc", f"server{i:02d}")
            self.services.append(service)
        if realm.slaves:
            realm.propagate()

    # -- populations -------------------------------------------------------

    def workstations(self, count: int, spread_kdcs: bool = True) -> List[Workstation]:
        """``count`` workstations, optionally spreading KDC preference
        round-robin across master and slaves (Figure 10's load story)."""
        addresses = self.realm.kdc_addresses()
        stations = []
        for i in range(count):
            ws = self.realm.workstation()
            if (
                spread_kdcs
                and len(self.realm.shards) == 1
                and len(addresses) > 1
            ):
                # One shard: rotate each station's preferred KDC via a
                # static locator.  Several shards already spread load
                # by principal hash, so the ring locator stays as-is.
                preferred = addresses[i % len(addresses)]
                ws.client.set_locator(
                    self.realm.name,
                    StaticLocator(
                        [preferred] + [a for a in addresses if a != preferred]
                    ),
                )
            stations.append(ws)
        return stations

    def random_user(self) -> Tuple[str, str]:
        return self.rng.choice(self.users)

    def pick_services(self, k: int) -> List[Principal]:
        """A session's working set: a few services, heavy-tailed (the
        first services registered are the popular ones, like Athena's
        central timesharing machines)."""
        chosen = []
        for _ in range(k):
            # Zipf-ish: index biased strongly toward 0.
            index = min(
                int(self.rng.paretovariate(1.2)) - 1, len(self.services) - 1
            )
            chosen.append(self.services[index])
        return chosen

    # -- registry plumbing -----------------------------------------------------

    def _counter(self, event: str):
        return self.realm.net.metrics.counter(
            "workload.events_total", {"event": event}
        )

    def _totals(self) -> dict:
        """The registry's running totals behind :class:`WorkloadStats`."""
        return {
            "logins": self._counter("login").value,
            "service_uses": self._counter("service_use").value,
            "failures": self._counter("failure").value,
            "kdc_messages": self.realm.net.metrics.total(
                "net.datagrams_total", port=KERBEROS_PORT
            ),
        }

    def _since(self, baseline: dict) -> WorkloadStats:
        """What one call added.  Reading never resets the registry: the
        caller's series keep counting across calls."""
        totals = self._totals()
        return WorkloadStats(**{k: int(totals[k] - baseline[k]) for k in totals})

    # -- drivers --------------------------------------------------------------

    def login_storm(self, stations: List[Workstation]) -> WorkloadStats:
        """Everyone arrives at once — 9 AM in a cluster."""
        baseline = self._totals()
        for ws in stations:
            username, password = self.random_user()
            ws.client.kdestroy()
            ws.client.kinit(username, password)
            self._counter("login").inc()
        return self._since(baseline)

    def session_traffic(
        self,
        stations: List[Workstation],
        uses_per_session: int,
        working_set: int = 3,
    ) -> WorkloadStats:
        """Each logged-in station touches its working set repeatedly —
        the pattern that makes ticket caching pay."""
        baseline = self._totals()
        for ws in stations:
            services = self.pick_services(working_set)
            for _ in range(uses_per_session):
                service = self.rng.choice(services)
                try:
                    ws.client.mk_req(service)
                    self._counter("service_use").inc()
                except Exception:
                    self._counter("failure").inc()
        return self._since(baseline)

    def login_burst(
        self,
        stations: List[Workstation],
        window: float = 1.0,
        address=None,
    ) -> BurstResult:
        """Open-loop 9-AM storm against **one** KDC: every station's AS
        request is posted into a ``window``-second arrival burst via
        :meth:`~repro.netsim.network.Host.rpc_async`, then the event
        runtime drains.  Unlike :meth:`login_storm` (closed-loop: each
        login completes before the next begins), arrivals here outpace
        service — this is the driver that exposes queueing, worker-pool
        scaling, and admission-control shedding at the Section 9 scale.

        Returns a :class:`BurstResult`; its ``digest`` folds each
        request's outcome and completion instant into one hash, so two
        same-seed runs can be compared bit-for-bit.
        """
        net = self.realm.net
        start = net.clock.now()
        pendings: List[Tuple[int, object]] = []
        count = len(stations)
        for i, ws in enumerate(stations):
            username, _password = self.random_user()
            client_principal = Principal(username, "", self.realm.name)
            offset = (i / count) * window
            if address is not None:
                target = address
            else:
                # Route each login to its owning shard's master, as a
                # ring-aware client would.
                sid = self.realm.shard_for_key(client_principal.db_key())
                target = self.realm.shards[sid].master_host.address

            def post(
                ws=ws, client_principal=client_principal, target=target
            ) -> None:
                request = AsRequest(
                    client=client_principal,
                    service=tgs_principal(self.realm.name),
                    requested_life=3600.0,
                    timestamp=ws.host.clock.now(),
                )
                wire = encode_message(MessageType.AS_REQ, request)
                # Each login is its own trace root: the async post stamps
                # the datagram with this span's context, so the KDC's
                # queue-wait/handler spans and both transit legs join it.
                with net.tracer.span(
                    "workload.login",
                    user=client_principal.name,
                    host=ws.host.name,
                ):
                    pendings.append(
                        (
                            len(pendings),
                            ws.host.rpc_async(target, KERBEROS_PORT, wire),
                        )
                    )

            net.runtime.at(start + offset, post, label="workload.login")
        net.runtime.run_until_idle()

        result = BurstResult(posted=count, makespan=net.clock.now() - start)
        fingerprint = hashlib.sha256()
        for index, pending in pendings:
            # HostDown (a crashed KDC refused the datagram) is a
            # different postmortem than a lost packet or a reply that
            # never came — scenario SLOs charge them separately.
            outcome = (
                "host_down"
                if isinstance(pending.error, HostDown)
                else "timed_out"
            )
            if pending.error is None and pending.reply is not None:
                try:
                    mtype, message = decode_message(pending.reply)
                except Exception:
                    mtype, message = None, None
                if mtype == MessageType.AS_REP:
                    outcome = "completed"
                elif (
                    mtype == MessageType.ERROR
                    and message.code == ErrorCode.KDC_OVERLOADED
                ):
                    outcome = "overloaded"
            setattr(result, outcome, getattr(result, outcome) + 1)
            fingerprint.update(
                f"{index}:{outcome}:{pending.resolved_at!r};".encode()
            )
        result.digest = fingerprint.hexdigest()
        return result
