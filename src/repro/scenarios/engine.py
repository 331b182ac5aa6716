"""The campaign engine: a campaign is a row of data (:class:`Campaign`:
world, load, fault schedule, SLOs), and one :func:`run` builds its world,
schedules its load and faults, runs the simulation and scores it.  It is
the repository's one load driver: every deployment-scale benchmark is a
row run here.  A failed station act (or an unanswered posted request) is
labelled by the one :func:`classify_failure`;
observations and notes come from one table, :data:`OBSERVE`, keyed by
SLO name, so an SLO means the same thing in every row that lists it.

Everything a result carries is derived from the simulated clock and the
seeded RNGs, never from wall time, so ``run(campaign, seed)`` is a pure
function: same row, same seed, same parameters → identical
:meth:`CampaignResult.summary`.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, ClassVar, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.apps.hesiod import HesiodServer
from repro.apps.kerberized import AppSession, KerberizedChannel, KerberizedServer
from repro.apps.nfs import NfsClientError, NfsCredential
from repro.core.errors import ErrorCode, KerberosError
from repro.core.locator import StaticLocator
from repro.core.messages import AsRequest, MessageType, decode_message, encode_message
from repro.core.retry import RetryExhausted, RetryPolicy
from repro.netsim import Network, NetworkError, Unreachable
from repro.netsim.ports import KERBEROS_PORT
from repro.obs import percentile
from repro.principal import Principal, tgs_principal
from repro.realm import (
    NfsFleet,
    NfsUserSpec,
    Realm,
    RealmSupervisor,
    RealmTopology,
    SupervisorConfig,
    Workstation,
)
from repro.realm.sharding import hash_point, move_range

REALM = "ATHENA.MIT.EDU"
#: Arrival ramp starts here, leaving the realm a quiet warm-up beat.
START = 5.0
#: Campus LAN: 10 ms per hop.
LATENCY = 0.01
#: Services registered beside the users, unless a row says ``n_services``.
N_SERVICES = 2
#: The echo application's port (the skew drill's ``krb_rd_req`` target).
ECHO_PORT = 2100
#: NFS uids follow population order from here.
UID_BASE = 1000

Params = Dict[str, object]


@dataclass(frozen=True)
class SloSpec:
    """One service-level objective: a named observation with a bound.

    ``kind`` is the comparison: ``"min"`` passes when the observation is
    at least the threshold (success rates, event counts), ``"max"`` when
    it is at most the threshold (latencies, recovery times, promotion
    budgets).
    """

    name: str
    kind: str            # "min" | "max"
    threshold: float
    description: str = ""

    def check(self, observed: float) -> "SloCheck":
        if self.kind == "min":
            passed = observed >= self.threshold
        elif self.kind == "max":
            passed = observed <= self.threshold
        else:
            raise ValueError(f"unknown SLO kind {self.kind!r}")
        return SloCheck(
            self.name, self.kind, self.threshold, self.description,
            observed=observed, passed=passed,
        )


@dataclass(frozen=True)
class SloCheck(SloSpec):
    """An SLO evaluated against one campaign run."""

    observed: float = 0.0
    passed: bool = False

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "threshold": self.threshold,
            "observed": round(self.observed, 6),
            "passed": self.passed,
        }


@dataclass
class StationRecord:
    """What one workstation experienced during the drill."""

    station: str
    user: str
    outcome: str         # "ok" or a typed failure label
    latency: float       # sim-seconds for this station's operation
    service: str = ""    # set on a session's service use: the service


@dataclass
class CampaignResult:
    """The declarative verdict of one campaign run."""

    name: str
    seed: int
    params: Dict[str, object]
    makespan: float = 0.0
    outcomes: Dict[str, int] = field(default_factory=dict)
    latency_p50: float = 0.0
    latency_p95: float = 0.0
    latency_p99: float = 0.0
    checks: List[SloCheck] = field(default_factory=list)
    digest: str = ""
    notes: Dict[str, object] = field(default_factory=dict)
    #: The run's live objects, for a caller that reads more than the
    #: summary (the registry, the tracer); never part of the summary.
    world: Optional["World"] = field(default=None, repr=False, compare=False)

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def summary(self) -> dict:
        """The artifact/CLI view; deterministic for a given (name, seed)."""
        return {
            "name": self.name,
            "seed": self.seed,
            "params": {k: self.params[k] for k in sorted(self.params)},
            "makespan": round(self.makespan, 6),
            "outcomes": {k: self.outcomes[k] for k in sorted(self.outcomes)},
            "latency_p50": round(self.latency_p50, 6),
            "latency_p95": round(self.latency_p95, 6),
            "latency_p99": round(self.latency_p99, 6),
            "checks": [c.as_dict() for c in self.checks],
            "passed": self.passed,
            "digest": self.digest,
            "notes": {k: self.notes[k] for k in sorted(self.notes)},
        }

    # -- accounting helpers (the scoring tail calls these) -----------------

    def account(self, records: Sequence[StationRecord]) -> None:
        """Fold per-station records into outcome counts, percentiles
        (over successful operations), and the run digest."""
        counts: Dict[str, int] = {}
        for record in records:
            counts[record.outcome] = counts.get(record.outcome, 0) + 1
        self.outcomes = counts
        ok_latencies = [r.latency for r in records if r.outcome == "ok"]
        self.latency_p50 = percentile(ok_latencies, 0.50)
        self.latency_p95 = percentile(ok_latencies, 0.95)
        self.latency_p99 = percentile(ok_latencies, 0.99)
        fingerprint = hashlib.sha256()
        for record in records:
            fingerprint.update(
                f"{record.station}:{record.user}:{record.outcome}:"
                f"{record.latency!r};".encode()
            )
        self.digest = fingerprint.hexdigest()

    def evaluate(
        self, slos: Sequence[SloSpec], observations: Mapping[str, float]
    ) -> None:
        """Check every SLO against its named observation (missing → 0)."""
        self.checks = [
            slo.check(float(observations.get(slo.name, 0.0))) for slo in slos
        ]

    def success_rate(self) -> float:
        total = sum(self.outcomes.values())
        return self.outcomes.get("ok", 0) / total if total else 0.0


def classify_failure(exc: Exception) -> str:
    """A stable label for a failed station operation: ``unavailable``
    when retries ran out, ``refused:skew`` for the paper's clock-skew
    refusal (``RD_AP_TIME``), ``refused:<code>`` for any other Kerberos
    refusal, ``error:<type>`` for a network failure.  Anything else is
    a fault of the program, not an outcome: it is raised."""
    if isinstance(exc, RetryExhausted):
        return "unavailable"
    if isinstance(exc, KerberosError):
        if exc.code == ErrorCode.RD_AP_TIME:
            return "refused:skew"
        return f"refused:{exc.code.name}"
    if isinstance(exc, NetworkError):
        return f"error:{type(exc).__name__}"
    raise exc


def capacity(queue) -> float:
    """Requests per simulated second one KDC loop serves, from its own
    cost model (full batches back to back)."""
    return queue.batch_size / queue.batch_cost(queue.batch_size)


# -- the spec -----------------------------------------------------------------


@dataclass(frozen=True)
class Campaign:
    """One drill as data; ``defaults`` are its ``-p`` parameters (a dict
    is accepted), and the callables read the run's merged parameters.

    World: ``topology``, the population (:class:`World`), ``daemons``
    attached in order, then ``n_stations`` stations built with ``retry``,
    the first ``skew_fraction`` of them drifting by ``skew`` seconds;
    with ``spread`` a one-shard realm's stations rotate their preferred
    KDC (Figure 10).  Load: station i's ``act`` arrives at ``START + (i /
    n_stations) * window`` in one ``shape``: ``paced`` (closed loop: the
    act runs where it arrives, one record), ``burst`` (open loop: the act
    only posts, and its record is read from the reply once the realm
    drains) or ``session`` (paced, then ``uses_per_session`` service
    uses over a ``working_set`` drawn as the session starts, one record
    each).

    Faults: :class:`Crash`, :class:`AddRule` and :class:`Rebalance`
    events, each fired at its ``at``."""

    name: str
    description: str
    defaults: Tuple[Tuple[str, object], ...]
    slos: Tuple[SloSpec, ...]
    topology: Callable[[Params], RealmTopology]
    daemons: Tuple[Callable[["World"], None], ...]
    spread: bool
    retry: Optional[RetryPolicy]
    act: Callable[["World", int], tuple]
    shape: str           # "paced" | "burst" | "session"
    window: Callable[[Params], float]
    faults: Callable[[Params], tuple]

    def __post_init__(self) -> None:
        object.__setattr__(self, "defaults", tuple(sorted(dict(self.defaults).items())))

    def override(self, **changes: object) -> "Campaign":
        """This row with some parameters changed — what ``-p key=value``
        runs.  Rows are frozen, so the library's row is never touched and
        nothing needs restoring; a key the row lacks is refused."""
        params = dict(self.defaults)
        unknown = set(changes) - set(params)
        if unknown:
            raise KeyError(
                f"campaign {self.name!r} has no parameter(s) "
                f"{sorted(unknown)}; knows {sorted(params)}"
            )
        return replace(self, defaults={**params, **changes})

    def diff(self, other: "Campaign") -> List[str]:
        """``key: old -> new`` for every parameter ``other`` changes."""
        mine, theirs = dict(self.defaults), dict(other.defaults)
        return [
            f"{key}: {mine.get(key)} -> {theirs.get(key)}"
            for key in sorted(mine.keys() | theirs.keys())
            if mine.get(key) != theirs.get(key)
        ]


class World:
    """One run's live objects, built from a row at a seed: what its
    acts, fault events and observations read.

    The population is ``n_users`` users (``user00000`` / ``password-0``
    …) and ``n_services`` services (``svc.server00`` …), registered
    before any daemon; every draw a run makes — whose login a station
    is, a session's working set — comes from the one ``rng``."""

    def __init__(self, campaign: Campaign, seed: int) -> None:
        self.params = params = dict(campaign.defaults)
        self.records, self.leaks, self.posted = [], [], []
        self.net = Network(seed=seed, latency=LATENCY)
        self.realm = realm = Realm(
            self.net, REALM, seed=seed.to_bytes(8, "big"),
            topology=campaign.topology(params),
        )
        self.rng = random.Random(seed)
        self.users = [(f"user{i:05d}", f"password-{i}") for i in range(int(params["n_users"]))]
        for username, password in self.users:
            realm.add_user(username, password)
        self.services = [
            realm.add_service("svc", f"server{i:02d}")[0]
            for i in range(int(params.get("n_services", N_SERVICES)))
        ]
        realm.propagate()
        self.first_master = realm.shards[0].master_host.name
        self.supervisor = self.app = self.fleet = None  # set by daemons
        for attach in campaign.daemons:
            attach(self)
        count = int(params["n_stations"])
        drifted = int(count * params.get("skew_fraction", 0.0))
        # Several shards already spread load by principal hash.
        kdcs = realm.kdc_addresses() if campaign.spread and len(realm.shards) == 1 else []
        self.stations = []
        for i in range(count):
            ws = realm.workstation(
                clock_skew=params["skew"] if i < drifted else 0.0,
                retry_policy=campaign.retry,
            )
            if len(kdcs) > 1:
                preferred = kdcs[i % len(kdcs)]
                ws.client.set_locator(
                    REALM, StaticLocator([preferred] + [a for a in kdcs if a != preferred])
                )
            self.stations.append(ws)
        # Each station reads its KDC view at boot, so a ring change
        # mid-run strands real cached views and referrals get traffic.
        for ws in self.stations:
            ws.client.kdcs(REALM)
        self.window = campaign.window(params)

    def random_user(self) -> Tuple[str, str]:
        return self.rng.choice(self.users)

    def pick_services(self, k: int) -> List[Principal]:
        """A session's working set: ``k`` draws biased hard toward the
        first services registered (Athena's central timesharing hosts)."""
        last = len(self.services) - 1
        return [
            self.services[min(int(self.rng.paretovariate(1.2)) - 1, last)]
            for _ in range(k)
        ]

    def job(self, ws: Workstation, user: str, act, shape: str) -> Callable[[], None]:
        """A station's scheduled job in the row's ``shape``: each act or
        use timed, a protocol or network failure labelled and contained
        (a dead KDC must not unwind the event loop) — anything else
        propagates out of :func:`run`.  An act that times only part of its
        work (the mount handshake) returns its own outcome and latency;
        a ``burst`` act returns its pending request instead."""
        clock = self.net.clock

        def timed(act, service: str = "") -> None:
            started = clock.now()
            try:
                outcome, latency = act() or ("ok", clock.now() - started)
            except (RetryExhausted, KerberosError, NetworkError) as exc:
                outcome, latency = classify_failure(exc), clock.now() - started
            self.records.append(StationRecord(ws.host.name, user, outcome, latency, service))

        def job() -> None:
            if shape == "burst":
                self.posted.append((ws.host.name, user, clock.now(), act()))
                return
            timed(act)
            if shape == "session":
                services = self.pick_services(int(self.params["working_set"]))
                for _ in range(int(self.params["uses_per_session"])):
                    service = self.rng.choice(services)
                    timed(lambda: ws.client.mk_req(service) and None, str(service))

        return job


def answered(pending) -> str:
    """A posted request's label, read from its reply as a paced act's
    failure is: ``ok``, ``refused:<code>`` (a shed is
    ``refused:KDC_OVERLOADED``), ``error:HostDown`` or
    ``error:Unreachable`` when nothing came back."""
    if pending.reply is None:
        return classify_failure(pending.error or Unreachable("no reply"))
    mtype, message = decode_message(pending.reply)
    return "ok" if mtype != MessageType.ERROR else classify_failure(KerberosError(message.code))


def run(campaign: Campaign, seed: int = 1988, **overrides: object) -> CampaignResult:
    """Build the row's world at ``seed`` (``overrides`` are
    :meth:`Campaign.override`), schedule its load and then its faults,
    run the simulation, and score it."""
    campaign = campaign.override(**overrides)
    world = World(campaign, seed)
    params, runtime, clock = world.params, world.net.runtime, world.net.clock
    for i, ws in enumerate(world.stations):
        user, act = campaign.act(world, i)
        runtime.at(
            START + (i / len(world.stations)) * world.window,
            world.job(ws, user, act, campaign.shape),
            label=f"scenario.{campaign.act.__name__}",
        )
    for event in campaign.faults(params):
        # An event already due (a WAN lossy from the start) applies now,
        # so the scheduler draws no tie-break for it.
        if event.at <= clock.now():
            event.fire(world)
        else:
            runtime.at(event.at, partial(event.fire, world), label="scenario.fault")
    # A supervisor or a propagation cadence never lets the realm idle.
    if "run_for" in params:
        runtime.run_for(float(params["run_for"]))
    else:
        runtime.run_until_idle()
    for station, user, posted_at, pending in world.posted:
        resolved = pending.resolved_at if pending.done else clock.now()
        world.records.append(StationRecord(station, user, answered(pending), resolved - posted_at))

    result = CampaignResult(campaign.name, seed, params, world=world)
    result.account(world.records)
    observed = {}
    for slo in campaign.slos:
        observed[slo.name], notes = OBSERVE[slo.name](world, result)
        result.notes.update(notes)
    result.makespan = clock.now() - START
    result.evaluate(campaign.slos, observed)
    return result


# -- daemons: attached to the realm before the stations boot -------------------


def incremental_propagation(world: World) -> None:
    world.realm.schedule_incremental(interval=30.0)


def hesiod(world: World) -> None:
    world.realm.attach_hesiod(HesiodServer().attach(world.net.add_host("hesiod")))


def supervisor(world: World) -> None:
    world.supervisor = RealmSupervisor(world.realm, SupervisorConfig()).attach(
        world.net.add_host("realm-monitor")
    )


class _EchoServer(KerberizedServer):
    """Minimal Kerberized app target for the skew drill."""

    def handle(self, session: AppSession, data: bytes) -> bytes:
        return data


def echo_server(world: World) -> None:
    host = world.net.add_host("appserver")
    service, _key = world.realm.add_service("echo", "appserver")
    _EchoServer(service, world.realm.srvtab_for(service), port=ECHO_PORT).attach(host)
    world.app = (service, host.address)


def nfs_fleet(world: World) -> None:
    """``n_servers`` fileservers; each user's home holds a private 0600
    file on every one."""
    users = world.users
    world.fleet = NfsFleet(
        world.realm, n_servers=int(world.params["n_servers"]),
        users=[NfsUserSpec(name, UID_BASE + i) for i, (name, _pw) in enumerate(users)],
    )
    for site in world.fleet.servers:
        for i, (name, _pw) in enumerate(users):
            cred = NfsCredential(uid=UID_BASE + i, gids=(100,))
            site.server.fs.create(f"/u/{name}/secret.txt", cred, mode=0o600)
            site.server.fs.write(f"/u/{name}/secret.txt", f"secret-{name}".encode(), cred)


# -- acts: station i's user, chosen when scheduled, and its work ---------------


def login(world: World, i: int):
    """kdestroy + kinit: a staggered keyboard unlock."""
    username, password = world.random_user()
    client = world.stations[i].client

    def act() -> None:
        client.kdestroy()
        client.kinit(username, password)

    return username, act


def post_login(world: World, i: int):
    """Post one AS request at the user's shard master and do not wait:
    the open-loop 9 AM storm, a ``burst`` row's act."""
    username, _password = world.random_user()
    client, host = Principal(username, "", REALM), world.stations[i].host
    realm = world.realm
    target = realm.shards[realm.shard_for_key(client.db_key())].master_host.address

    def act():
        request = AsRequest(
            client=client, service=tgs_principal(REALM), requested_life=3600.0,
            timestamp=host.clock.now(),
        )
        # Each post is its own trace root: the datagram carries this
        # span's context, so the KDC's queue-wait and handler spans and
        # both transit legs join it.
        with world.net.tracer.span("scenario.post_login", user=username, host=host.name):
            return host.rpc_async(
                target, KERBEROS_PORT, encode_message(MessageType.AS_REQ, request)
            )

    return username, act


def use_app(world: World, i: int):
    """kinit, then one authenticated call to the echo application."""
    username, password = world.random_user()
    client, (service, address) = world.stations[i].client, world.app

    def act() -> None:
        client.kinit(username, password)
        channel = KerberizedChannel(client, service, address, ECHO_PORT)
        channel.call(b"ping")
        channel.close()

    return username, act


def mount(world: World, i: int):
    """Mount a fleet server, read the user's own 0600 file, *attempt a
    cross-user read* (the leak probe — it must be refused), write a note
    and unmount; the latency is the Kerberos mount handshake's.  Users
    take turns in population order, so every user mounts and every probe
    crosses a user boundary."""
    users = world.users
    (name, password), other = users[i % len(users)], users[(i + 1) % len(users)][0]
    ws, site = world.stations[i], world.fleet[i % len(world.fleet)]
    clock = world.net.clock

    def act() -> Tuple[str, float]:
        ws.client.kinit(name, password)
        client = world.fleet.client(ws, site.index, uid_on_client=UID_BASE + i % len(users))
        started = clock.now()
        client.kerberos_mount(ws.client, site.mount_service)
        latency = clock.now() - started
        outcome = "ok"
        if client.read(f"/u/{name}/secret.txt") != f"secret-{name}".encode():
            outcome = "wrong_bytes"
        try:
            client.read(f"/u/{other}/secret.txt")
            world.leaks.append(f"{name} read {other} on {site.name}")
            outcome = "leak"
        except NfsClientError:
            pass  # refused at the other user's 0700 home directory
        note = f"/u/{name}/note-{ws.host.name}.txt"
        client.create(note)
        client.write(note, b"present")
        client.unmount()
        return outcome, latency

    return name, act


# -- fault events, fired at ``at`` ---------------------------------------------


@dataclass(frozen=True)
class Crash:
    """Crash shard 0's master (``slave=None``) or its ``slave``-th
    slave for ``downtime`` seconds."""

    at: float
    downtime: float
    slave: Optional[int]

    def fire(self, world: World) -> None:
        site = world.realm.shards[0]
        host = site.master_host if self.slave is None else site.slaves[self.slave].host
        world.net.crash_host(host.name, downtime=self.downtime)


@dataclass(frozen=True)
class AddRule:
    """Install a fault-plane rule (``Loss``, ``Jitter``, …); a link is
    bad from the start of the run."""

    at: ClassVar[float] = 0.0
    rule: object

    def fire(self, world: World) -> None:
        world.net.faults.add(self.rule)


@dataclass(frozen=True)
class Rebalance:
    """Move the range holding (roughly) the lower half of shard 0's
    users to shard 1 — chosen from live principal positions, as an
    operator rebalancing a hot shard would, so records really stream."""

    at: float

    def fire(self, world: World) -> None:
        realm = world.realm
        points = sorted(
            hash_point(name) for name, _pw in world.users
            if realm.shard_for_key(name) == 0
        )
        if points:
            move_range(realm, points[0], points[len(points) // 2] + 1, 1)


# -- observations -----------------------------------------------------------------


def _share(records: Sequence[StationRecord], outcome: str) -> float:
    return sum(r.outcome == outcome for r in records) / len(records) if records else 0.0


def _by_drift(world: World, drifted: bool) -> List[StationRecord]:
    """Records of the drifted (or in-sync) stations, by station name:
    nested RPC pumping appends records out of schedule order."""
    names = {ws.host.name for ws in world.stations if ws.host.clock.skew}
    return [r for r in world.records if (r.station in names) == drifted]


def _noted(w: World, series: str, note: str, cast: Callable):
    """A series' total as the observation, and as the note ``note``."""
    value = w.net.metrics.total(series)
    return value, {note: cast(value)}


def _post_recovery_write(w: World, r: CampaignResult):
    """Administration works on the *new* master with no manual help:
    register a fresh user, propagate, and log them in."""
    try:
        w.realm.add_user("postmortem", "postmortem-pw")
        w.realm.propagate()
        w.realm.workstation("ws-postmortem").client.kinit("postmortem", "postmortem-pw")
    except Exception:
        return 0.0, {}
    return 1.0, {}


def _shed_total(w: World, r: CampaignResult):
    sheds, notes = _noted(w, "kdc.queue.shed_total", "shed_total", int)
    return sheds, {
        **notes,
        "failures": sum(r.outcomes.values()) - r.outcomes.get("ok", 0),
        "arrival_rate_req_s": round(len(w.stations) / w.window, 1),
        "capacity_req_s": round(capacity(w.realm.topology.kdc_queue), 1),
    }


def _clean_failure_rate(w: World, r: CampaignResult):
    """Every failure is a typed shed or refusal, never a crash."""
    failures = {k: n for k, n in r.outcomes.items() if k != "ok"}
    clean = sum(n for k, n in failures.items() if k == "unavailable" or k.startswith("refused:"))
    return (clean / sum(failures.values()) if failures else 1.0), {}


def _ring_epoch(w: World, r: CampaignResult):
    epoch, notes = _noted(w, "shard.ring_epoch", "ring_epoch", int)
    follows = w.net.metrics.total("kdc.referral_follows_total")
    return epoch, {**notes, "referral_follows": int(follows)}


def _kdc_requests_per_use(w: World, r: CampaignResult):
    """Section 9's amortization: KDC requests (logins and TGS exchanges)
    per successful service use — ticket caching keeps it below one."""
    ok = [rec for rec in w.records if rec.outcome == "ok"]
    uses = sum(1 for rec in ok if rec.service)
    kdc = int(w.net.metrics.total("net.datagrams_total", port=KERBEROS_PORT))
    per_use = kdc / uses if uses else 0.0
    return per_use, {
        "logins": len(ok) - uses, "service_uses": uses, "kdc_messages": kdc,
        "kdc_requests_per_use": round(per_use, 4),
    }


#: SLO name → ``(world, result) -> (observation, notes explaining it)``,
#: read after the run in the row's SLO order.
OBSERVE: Dict[str, Callable[[World, CampaignResult], Tuple[float, dict]]] = {
    "success_rate": lambda w, r: (r.success_rate(), {}),
    "latency_p95": lambda w, r: (r.latency_p95, {}),
    "latency_p99": lambda w, r: (r.latency_p99, {}),
    "promotions": lambda w, r: (w.supervisor.promotions, {
        "promotions": w.supervisor.promotions, "old_master": w.first_master,
        "new_master": w.realm.shards[0].master_host.name,
    }),
    "promotions_max": lambda w, r: (
        w.supervisor.promotions, {"promotions": w.supervisor.promotions}
    ),
    "time_to_recover": lambda w, r: _noted(
        w, "realm.time_to_recover_seconds", "time_to_recover", float
    ),
    "audit_joined": lambda w, r: (sum(
        1 for e in w.net.audit.events("master_promoted") if e.trace_id
    ), {}),
    "rejoined": lambda w, r: (len(w.net.audit.events("slave_rejoined")), {}),
    "post_recovery_write": _post_recovery_write,
    "healthy_success_rate": lambda w, r: (_share(_by_drift(w, False), "ok"), {}),
    "skewed_refusal_rate": lambda w, r: (
        _share(_by_drift(w, True), "refused:skew"),
        {"n_skewed": sum(1 for ws in w.stations if ws.host.clock.skew)},
    ),
    "shed_total": _shed_total,
    "clean_failure_rate": _clean_failure_rate,
    "mount_latency_p99": lambda w, r: (r.latency_p99, {
        "mounts_mapped": int(w.net.metrics.total("nfs.mounts_total", result="mapped"))
    }),
    "credential_leaks": lambda w, r: (len(w.leaks), {"leaks": w.leaks}),
    "residual_mappings": lambda w, r: (
        w.fleet.total_mappings(), {"residual_mappings": w.fleet.total_mappings()}
    ),
    "ring_epoch": _ring_epoch,
    "kdc_requests_per_use": _kdc_requests_per_use,
    "entries_moved": lambda w, r: _noted(
        w, "shard.rebalance_entries_total", "entries_moved", int
    ),
}
