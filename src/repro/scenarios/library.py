"""The shipped campaign library: six fleet-scale drills.

Each campaign is the executable form of a question the paper's
deployment raises:

* ``morning_login_storm`` — does a realm with slaves absorb the 9 AM
  arrival wave (Section 9 scale, Figure 10 load spreading)?
* ``slave_outage_peak`` — when one slave dies mid-storm, do its clients
  fail over without missing their SLO?
* ``master_assassination`` — when the *master* dies, does the
  supervisor promote a slave, re-point discovery, and bound the
  administrative outage — with no operator in the loop?
* ``rolling_kdc_upgrade`` — can every KDC be bounced in sequence for an
  upgrade without triggering a spurious promotion or failing a login?
* ``clock_skew_epidemic`` — the paper's 5-minute skew assumption: when
  a fraction of the fleet drifts beyond it, exactly those machines are
  refused service, and only those.
* ``lossy_wan_degradation`` — a remote campus behind a lossy, jittery
  WAN link: retries keep logins succeeding, at a latency cost the SLO
  quantifies.

Later PRs added ``request_plane_saturation`` (the batch plane's
admission-control gate), ``shard_rebalance_under_load`` (a live
``move_range`` mid-storm: the double-serve window plus referral repair
must keep every login succeeding while a hash range changes shards),
and ``nfs_fleet_mount_storm`` (the appendix's Kerberized NFS at fleet
scale: a mount wave with a cross-user leak probe on every station).

All campaigns build their own :class:`~repro.netsim.network.Network`
from the run's seed, so results are a pure function of
``(campaign, seed, params)``.
"""

from __future__ import annotations

from typing import Dict, List

from repro.apps.hesiod import HesiodServer
from repro.apps.kerberized import (
    AppSession,
    ChannelError,
    KerberizedChannel,
    KerberizedServer,
)
from repro.core.errors import KerberosError
from repro.core.retry import RetryPolicy
from repro.netsim import Jitter, Loss, Match, Network
from repro.netsim.ports import KERBEROS_PORT
from repro.realm import (
    Realm,
    RealmSupervisor,
    RealmTopology,
    ShardedRealm,
    SupervisorConfig,
)
from repro.scenarios.engine import (
    CampaignResult,
    SloSpec,
    StationRecord,
    campaign,
    login_job,
)
from repro.workload import AthenaWorkload

REALM = "ATHENA.MIT.EDU"

#: Arrival ramp starts here, leaving the realm a quiet warm-up beat.
START = 5.0


def _build(seed: int, n_users: int, slaves: int) -> tuple:
    """Network + populated realm + workload, all derived from the seed."""
    net = Network(seed=seed, latency=0.01)  # campus LAN: 10 ms per hop
    topology = RealmTopology(slaves_per_shard=slaves)
    realm = Realm(net, REALM, seed=seed.to_bytes(8, "big"), topology=topology)
    workload = AthenaWorkload(realm, n_users=n_users, n_services=2, seed=seed)
    return net, realm, workload


def _paced_logins(net, workload, stations, window: float, records) -> None:
    """Schedule one closed-loop login per station, paced across the
    arrival window — the morning's staggered keyboard unlocks."""
    count = len(stations)
    for i, ws in enumerate(stations):
        username, password = workload.random_user()
        net.runtime.at(
            START + (i / count) * window,
            login_job(net, ws, username, password, records),
            label="scenario.login",
        )


@campaign(
    "morning_login_storm",
    "9 AM arrival wave against master + 2 slaves",
    defaults={"n_stations": 48, "n_users": 48, "window": 60.0},
    slos=(
        SloSpec("success_rate", "min", 0.99, "logins that obtained a TGT"),
        SloSpec("latency_p95", "max", 5.0, "p95 login latency (sim s)"),
    ),
)
def morning_login_storm(seed: int, params: Dict) -> CampaignResult:
    net, realm, workload = _build(seed, int(params["n_users"]), slaves=2)
    stations = workload.workstations(int(params["n_stations"]))
    records: List[StationRecord] = []
    _paced_logins(net, workload, stations, float(params["window"]), records)
    net.runtime.run_until_idle()

    result = CampaignResult("", seed, {}, makespan=net.clock.now() - START)
    result.account(records)
    result.evaluate(
        _slos("morning_login_storm"),
        {
            "success_rate": result.success_rate(),
            "latency_p95": result.latency_p95,
        },
    )
    return result


@campaign(
    "slave_outage_peak",
    "one slave KDC crashes mid-storm; its clients fail over",
    defaults={"n_stations": 48, "n_users": 48, "window": 60.0},
    slos=(
        SloSpec("success_rate", "min", 0.99, "logins despite the outage"),
        SloSpec("latency_p95", "max", 10.0, "p95 includes failover hops"),
    ),
)
def slave_outage_peak(seed: int, params: Dict) -> CampaignResult:
    net, realm, workload = _build(seed, int(params["n_users"]), slaves=2)
    stations = workload.workstations(int(params["n_stations"]))
    records: List[StationRecord] = []
    window = float(params["window"])
    _paced_logins(net, workload, stations, window, records)
    # The first slave dies a third of the way into the wave and stays
    # down past its end — every station that preferred it must hop.
    victim = realm.slaves[0].host.name
    net.runtime.at(
        START + window / 3,
        lambda: net.crash_host(victim, downtime=2 * window),
        label="scenario.crash",
    )
    net.runtime.run_until_idle()

    result = CampaignResult("", seed, {}, makespan=net.clock.now() - START)
    result.account(records)
    result.evaluate(
        _slos("slave_outage_peak"),
        {
            "success_rate": result.success_rate(),
            "latency_p95": result.latency_p95,
        },
    )
    return result


@campaign(
    "master_assassination",
    "master KDC killed at peak; supervisor must promote, re-point, rejoin",
    defaults={
        "n_stations": 40,
        "n_users": 40,
        "window": 240.0,
        "kill_at": 60.0,
        "downtime": 150.0,
        "run_for": 420.0,
    },
    slos=(
        SloSpec("success_rate", "min", 0.97, "slaves carry logins (Fig 10)"),
        SloSpec("promotions", "min", 1.0, "supervisor promoted a slave"),
        SloSpec("promotions_max", "max", 1.0, "exactly one promotion"),
        SloSpec("time_to_recover", "max", 30.0, "suspicion → new master"),
        SloSpec("audit_joined", "min", 1.0, "master_promoted has a trace"),
        SloSpec("rejoined", "min", 1.0, "old master came back as a slave"),
        SloSpec("post_recovery_write", "min", 1.0, "admin write + login"),
    ),
)
def master_assassination(seed: int, params: Dict) -> CampaignResult:
    net, realm, workload = _build(seed, int(params["n_users"]), slaves=2)
    realm.schedule_incremental(interval=30.0)

    # Discovery: the realm's KDC list lives in Hesiod, and every
    # workstation also gets a direct re-point on promotion.
    hesiod = HesiodServer().attach(net.add_host("hesiod"))
    realm.attach_hesiod(hesiod)

    supervisor = RealmSupervisor(realm, SupervisorConfig()).attach(
        net.add_host("realm-monitor")
    )

    stations = workload.workstations(int(params["n_stations"]))
    records: List[StationRecord] = []
    _paced_logins(net, workload, stations, float(params["window"]), records)

    old_master = realm.master_host.name
    net.runtime.at(
        float(params["kill_at"]),
        lambda: net.crash_host(old_master, downtime=float(params["downtime"])),
        label="scenario.assassinate",
    )
    net.runtime.run_for(float(params["run_for"]))

    # Administration must work on the *new* master with no manual help:
    # register a fresh user, propagate, and log them in.
    post_recovery = 0.0
    try:
        realm.add_user("postmortem", "postmortem-pw")
        realm.propagate()
        late_ws = realm.workstation("ws-postmortem")
        late_ws.client.kinit("postmortem", "postmortem-pw")
        post_recovery = 1.0
    except Exception:
        post_recovery = 0.0

    promoted = [
        e for e in net.audit.events() if e.kind == "master_promoted"
    ]
    rejoined = [
        e for e in net.audit.events() if e.kind == "slave_rejoined"
    ]
    ttr = net.metrics.gauge(
        "realm.time_to_recover_seconds", {"realm": REALM}
    ).value

    result = CampaignResult("", seed, {}, makespan=net.clock.now() - START)
    result.account(records)
    result.notes = {
        "old_master": old_master,
        "new_master": realm.master_host.name,
        "promotions": supervisor.promotions,
        "time_to_recover": ttr,
    }
    result.evaluate(
        _slos("master_assassination"),
        {
            "success_rate": result.success_rate(),
            "promotions": float(supervisor.promotions),
            "promotions_max": float(supervisor.promotions),
            "time_to_recover": ttr,
            "audit_joined": float(
                sum(1 for e in promoted if e.trace_id)
            ),
            "rejoined": float(len(rejoined)),
            "post_recovery_write": post_recovery,
        },
    )
    return result


@campaign(
    "rolling_kdc_upgrade",
    "bounce every KDC in sequence; no login fails, no spurious promotion",
    defaults={
        "n_stations": 36,
        "n_users": 36,
        "window": 150.0,
        "bounce_downtime": 8.0,
        "run_for": 240.0,
    },
    slos=(
        SloSpec("success_rate", "min", 0.99, "logins ride out each bounce"),
        SloSpec("promotions_max", "max", 0.0, "no promotion during upgrade"),
    ),
)
def rolling_kdc_upgrade(seed: int, params: Dict) -> CampaignResult:
    net, realm, workload = _build(seed, int(params["n_users"]), slaves=2)
    # The supervisor watches the whole time: a short bounce (below its
    # miss threshold) must never look like an assassination.
    supervisor = RealmSupervisor(realm, SupervisorConfig()).attach(
        net.add_host("realm-monitor")
    )
    stations = workload.workstations(int(params["n_stations"]))
    records: List[StationRecord] = []
    _paced_logins(net, workload, stations, float(params["window"]), records)

    downtime = float(params["bounce_downtime"])
    fleet = [s.host.name for s in realm.slaves] + [realm.master_host.name]
    for i, name in enumerate(fleet):
        net.runtime.at(
            START + 25.0 + i * 40.0,
            lambda name=name: net.crash_host(name, downtime=downtime),
            label="scenario.bounce",
        )
    net.runtime.run_for(float(params["run_for"]))

    result = CampaignResult("", seed, {}, makespan=net.clock.now() - START)
    result.account(records)
    result.notes = {"promotions": supervisor.promotions}
    result.evaluate(
        _slos("rolling_kdc_upgrade"),
        {
            "success_rate": result.success_rate(),
            "promotions_max": float(supervisor.promotions),
        },
    )
    return result


class _EchoServer(KerberizedServer):
    """Minimal Kerberized app target for the skew drill."""

    def handle(self, session: AppSession, data: bytes) -> bytes:
        return data


@campaign(
    "clock_skew_epidemic",
    "a fraction of the fleet drifts past the 5-minute skew window",
    defaults={"n_stations": 40, "n_users": 40, "skew": 600.0,
              "skew_fraction": 0.3},
    slos=(
        SloSpec("healthy_success_rate", "min", 0.99,
                "in-sync stations keep working"),
        SloSpec("skewed_refusal_rate", "min", 0.99,
                "drifted stations are refused, as the paper requires"),
    ),
)
def clock_skew_epidemic(seed: int, params: Dict) -> CampaignResult:
    net, realm, workload = _build(seed, int(params["n_users"]), slaves=1)
    app_host = net.add_host("appserver")
    service, _key = realm.add_service("echo", "appserver")
    _EchoServer(service, realm.srvtab_for(service), port=2100).attach(app_host)

    n_stations = int(params["n_stations"])
    n_skewed = int(n_stations * float(params["skew_fraction"]))
    records: List[StationRecord] = []
    stations = []
    for i in range(n_stations):
        drift = float(params["skew"]) if i < n_skewed else 0.0
        stations.append((realm.workstation(clock_skew=drift), drift > 0.0))

    def use_app(ws, username, password, drifted):
        def job():
            started = net.clock.now()
            try:
                ws.client.kinit(username, password)
                channel = KerberizedChannel(
                    ws.client, service, app_host.address, 2100
                )
                channel.call(b"ping")
                channel.close()
                outcome = "ok"
            except (ChannelError, KerberosError) as exc:
                # A drifted station is refused either at the TGS (its
                # authenticator timestamp is outside the window) or at
                # the application's krb_rd_req — same verdict.
                outcome = "refused:skew" if drifted else f"refused:{exc}"
            except Exception as exc:
                outcome = f"error:{type(exc).__name__}"
            records.append(
                StationRecord(
                    station=ws.host.name,
                    user=username,
                    outcome=outcome,
                    latency=net.clock.now() - started,
                )
            )

        return job

    for i, (ws, drifted) in enumerate(stations):
        username, password = workload.random_user()
        net.runtime.at(
            START + i * 1.5, use_app(ws, username, password, drifted),
            label="scenario.app_use",
        )
    net.runtime.run_until_idle()

    # Nested RPC pumping means records do not append in schedule order;
    # partition by station name, which is unambiguous per record.
    skewed_names = {ws.host.name for ws, drifted in stations if drifted}
    healthy = [r for r in records if r.station not in skewed_names]
    skewed_outcomes = [
        r.outcome for r in records if r.station in skewed_names
    ]
    result = CampaignResult("", seed, {}, makespan=net.clock.now() - START)
    result.account(records)
    result.notes = {"n_skewed": n_skewed}
    result.evaluate(
        _slos("clock_skew_epidemic"),
        {
            "healthy_success_rate": (
                sum(1 for r in healthy if r.outcome == "ok") / len(healthy)
                if healthy else 0.0
            ),
            "skewed_refusal_rate": (
                sum(1 for o in skewed_outcomes if o == "refused:skew")
                / len(skewed_outcomes)
                if skewed_outcomes else 0.0
            ),
        },
    )
    return result


@campaign(
    "lossy_wan_degradation",
    "remote campus behind a lossy, jittery WAN; retries carry the day",
    defaults={"n_stations": 40, "n_users": 40, "window": 120.0,
              "loss_rate": 0.15, "jitter_high": 2.0},
    slos=(
        SloSpec("success_rate", "min", 0.95, "retries absorb the loss"),
        SloSpec("latency_p95", "max", 120.0, "degraded, but bounded"),
    ),
)
def lossy_wan_degradation(seed: int, params: Dict) -> CampaignResult:
    net, realm, workload = _build(seed, int(params["n_users"]), slaves=1)
    # Both legs of every KDC exchange cross the bad link.
    loss = float(params["loss_rate"])
    jitter_high = float(params["jitter_high"])
    net.faults.add(Loss(loss, Match.build(port=KERBEROS_PORT)))
    net.faults.add(Loss(loss, Match.build(src_port=KERBEROS_PORT)))
    net.faults.add(Jitter(0.1, jitter_high, Match.build(port=KERBEROS_PORT)))
    net.faults.add(
        Jitter(0.1, jitter_high, Match.build(src_port=KERBEROS_PORT))
    )

    policy = RetryPolicy(
        max_attempts=5, base_delay=1.0, multiplier=2.0, max_delay=8.0
    )
    stations = [
        realm.workstation(retry_policy=policy)
        for _ in range(int(params["n_stations"]))
    ]
    records: List[StationRecord] = []
    _paced_logins(net, workload, stations, float(params["window"]), records)
    net.runtime.run_until_idle()

    result = CampaignResult("", seed, {}, makespan=net.clock.now() - START)
    result.account(records)
    result.evaluate(
        _slos("lossy_wan_degradation"),
        {
            "success_rate": result.success_rate(),
            "latency_p95": result.latency_p95,
        },
    )
    return result


def _slos(name: str):
    from repro.scenarios.engine import get

    return get(name).slos


@campaign(
    "request_plane_saturation",
    "open-loop AS storm at 2x KDC capacity; sheds typed, admitted fast",
    defaults={"n_stations": 64, "n_users": 32, "overload_factor": 2.0,
              "queue_limit": 16},
    slos=(
        SloSpec("shed_total", "min", 1.0, "admission control engaged"),
        SloSpec("clean_failure_rate", "min", 1.0,
                "every failure is a typed shed/refusal, never a crash"),
        SloSpec("success_rate", "min", 0.5,
                "retries recover at least the admitted half"),
        SloSpec("latency_p95", "max", 30.0,
                "admitted logins don't collapse under the storm"),
    ),
)
def request_plane_saturation(seed: int, params: Dict) -> CampaignResult:
    """ISSUE 8's gate drill: drive the batch request plane *past* its
    admission capacity, open-loop — arrivals are scheduled by the clock,
    never by completions, so the storm does not politely slow down when
    the KDC does.  The realm must degrade the way the WorkQueue design
    (PR 4) promises: excess arrivals are shed at submit time with a
    typed ``KDC_OVERLOADED`` error (clients retry and mostly recover),
    and the requests that *are* admitted keep their latency — overload
    must never smear into the served population.
    """
    from repro.runtime.workqueue import WorkQueueConfig

    queue = WorkQueueConfig(
        workers=1, batch_size=8,
        queue_limit=int(params["queue_limit"]),
    )
    # Service capacity of the loop, from its own cost model; the window
    # is chosen so the arrival rate is `overload_factor` times that.
    capacity = queue.batch_size / queue.batch_cost(queue.batch_size)
    n_stations = int(params["n_stations"])
    window = n_stations / (capacity * float(params["overload_factor"]))

    net = Network(seed=seed, latency=0.01)
    realm = Realm(
        net, REALM, seed=seed.to_bytes(8, "big"),
        topology=RealmTopology(kdc_queue=queue),
    )
    workload = AthenaWorkload(
        realm, n_users=int(params["n_users"]), n_services=2, seed=seed
    )
    stations = workload.workstations(n_stations)
    records: List[StationRecord] = []
    _paced_logins(net, workload, stations, window, records)
    net.runtime.run_until_idle()

    result = CampaignResult("", seed, {}, makespan=net.clock.now() - START)
    result.account(records)
    sheds = net.metrics.total("kdc.queue.shed_total")
    failures = [r for r in records if r.outcome != "ok"]
    clean = [
        r for r in failures
        if r.outcome == "unavailable" or r.outcome.startswith("refused:")
    ]
    result.notes["shed_total"] = int(sheds)
    result.notes["failures"] = len(failures)
    result.notes["arrival_rate_req_s"] = round(n_stations / window, 1)
    result.notes["capacity_req_s"] = round(capacity, 1)
    result.evaluate(
        _slos("request_plane_saturation"),
        {
            "shed_total": sheds,
            "clean_failure_rate": (
                len(clean) / len(failures) if failures else 1.0
            ),
            "success_rate": result.success_rate(),
            "latency_p95": result.latency_p95,
        },
    )
    return result


@campaign(
    "nfs_fleet_mount_storm",
    "paced mount wave across an NFS fleet; no leaks, no residue",
    defaults={"n_servers": 4, "n_stations": 32, "n_users": 16,
              "window": 60.0},
    slos=(
        SloSpec("success_rate", "min", 0.99,
                "mount + I/O + unmount completed"),
        SloSpec("mount_latency_p99", "max", 5.0,
                "p99 of the Kerberos mount handshake (sim s)"),
        SloSpec("credential_leaks", "max", 0.0,
                "cross-user reads served — must be zero, ever"),
        SloSpec("residual_mappings", "max", 0.0,
                "kernel-map entries left after every unmount"),
    ),
)
def nfs_fleet_mount_storm(seed: int, params: Dict) -> CampaignResult:
    """The fleet PR's acceptance drill: a wave of workstations mounts a
    Kerberized NFS fleet, reads and writes its own 0600 home files,
    *attempts a cross-user read* (the leak probe — it must be refused),
    and unmounts.  The SLOs are the appendix's security contract at
    fleet scale: mount latency stays bounded, not one byte crosses user
    boundaries, and unmount leaves no mapping behind."""
    from repro.realm import NfsFleet, NfsUserSpec

    net = Network(seed=seed, latency=0.01)
    topology = RealmTopology(slaves_per_shard=1)
    realm = Realm(net, REALM, seed=seed.to_bytes(8, "big"), topology=topology)
    n_users = int(params["n_users"])
    users = []
    for i in range(n_users):
        name, pw, uid = f"user{i:03d}", f"pw-{i:03d}", 1000 + i
        realm.add_user(name, pw)
        users.append((name, pw, uid))
    fleet = NfsFleet(
        realm,
        n_servers=int(params["n_servers"]),
        users=[NfsUserSpec(name, uid) for name, _pw, uid in users],
    )
    # Seed each user's private file on every server.
    from repro.apps.nfs import NfsCredential

    for site in fleet.servers:
        for name, _pw, uid in users:
            cred = NfsCredential(uid=uid, gids=(100,))
            site.server.fs.create(f"/u/{name}/secret.txt", cred, mode=0o600)
            site.server.fs.write(
                f"/u/{name}/secret.txt", f"secret-{name}".encode(), cred
            )

    records: List[StationRecord] = []
    leaks: List[str] = []

    def station_job(ws, site_index, name, pw, uid, other_name):
        def job():
            from repro.apps.nfs import NfsClientError

            site = fleet[site_index]
            mount_latency = 0.0
            outcome = "ok"
            try:
                ws.client.kinit(name, pw)
                client = fleet.client(ws, site_index, uid_on_client=uid)
                t0 = net.clock.now()
                client.kerberos_mount(ws.client, site.mount_service)
                mount_latency = net.clock.now() - t0
                if client.read(f"/u/{name}/secret.txt") != (
                    f"secret-{name}".encode()
                ):
                    outcome = "wrong_bytes"
                # The leak probe: another user's 0600 file must be
                # refused at their 0700 home directory.
                try:
                    client.read(f"/u/{other_name}/secret.txt")
                    leaks.append(f"{name} read {other_name} on {site.name}")
                    outcome = "leak"
                except NfsClientError:
                    pass
                client.create(f"/u/{name}/note-{ws.host.name}.txt")
                client.write(
                    f"/u/{name}/note-{ws.host.name}.txt", b"present"
                )
                client.unmount()
            except Exception as exc:
                outcome = f"error:{type(exc).__name__}"
            records.append(
                StationRecord(
                    station=ws.host.name,
                    user=name,
                    outcome=outcome,
                    latency=mount_latency,
                )
            )

        return job

    n_stations = int(params["n_stations"])
    window = float(params["window"])
    for i in range(n_stations):
        name, pw, uid = users[i % n_users]
        other_name = users[(i + 1) % n_users][0]
        ws = realm.workstation()
        net.runtime.at(
            START + (i / n_stations) * window,
            station_job(ws, i % len(fleet), name, pw, uid, other_name),
            label="scenario.mount",
        )
    net.runtime.run_until_idle()

    result = CampaignResult("", seed, {}, makespan=net.clock.now() - START)
    result.account(records)
    result.notes = {
        "leaks": leaks,
        "residual_mappings": fleet.total_mappings(),
        "mounts_mapped": int(net.metrics.total(
            "nfs.mounts_total", result="mapped"
        )),
    }
    result.evaluate(
        _slos("nfs_fleet_mount_storm"),
        {
            "success_rate": result.success_rate(),
            "mount_latency_p99": result.latency_p99,
            "credential_leaks": float(len(leaks)),
            "residual_mappings": float(fleet.total_mappings()),
        },
    )
    return result


@campaign(
    "shard_rebalance_under_load",
    "live move_range mid-storm: zero auth failures, p99 stays bounded",
    defaults={"n_stations": 40, "n_users": 40, "n_shards": 2,
              "window": 90.0, "move_at": 30.0},
    slos=(
        SloSpec("success_rate", "min", 1.0,
                "no login fails while the range moves"),
        SloSpec("latency_p99", "max", 10.0,
                "p99 bounded through the handoff (referral = one hop)"),
        SloSpec("ring_epoch", "min", 2.0, "the ring actually flipped"),
        SloSpec("entries_moved", "min", 1.0, "records really streamed"),
    ),
)
def shard_rebalance_under_load(seed: int, params: Dict) -> CampaignResult:
    """The sharding acceptance drill: a paced login storm is in flight
    when the operator moves half of shard 0's largest arc to shard 1.
    The move double-serves the range while it streams, then flips the
    ring epoch; stations that cached the old ring are repaired lazily
    by ``WrongShard`` referrals.  The SLO is absolute: **zero** login
    failures — a rebalance that bounces even one user is a failed
    rebalance — and the p99 stays bounded (a referral costs one extra
    round trip, not a timeout).
    """
    net = Network(seed=seed, latency=0.01)
    realm = ShardedRealm(
        net, REALM, shards=int(params["n_shards"]),
        seed=seed.to_bytes(8, "big"),
    )
    workload = AthenaWorkload(
        realm, n_users=int(params["n_users"]), n_services=2, seed=seed
    )
    stations = workload.workstations(int(params["n_stations"]))
    # Warm every station's ring snapshot so the move strands real
    # cached views — the referral path gets genuine traffic.
    for ws in stations:
        ws.client.kdcs(REALM)
    records: List[StationRecord] = []
    _paced_logins(net, workload, stations, float(params["window"]), records)

    def rebalance():
        # Move the range holding (roughly) half of shard 0's users —
        # chosen from live principal positions, the way an operator
        # rebalancing a hot shard would, so records really stream.
        from repro.realm.sharding import hash_point

        points = sorted(
            hash_point(username)
            for username, _pw in workload.users
            if realm.shard_for_key(username) == 0
        )
        if not points:
            return
        lo = points[0]
        hi = points[len(points) // 2] + 1
        realm.move_range(lo, hi, 1)

    net.runtime.at(
        START + float(params["move_at"]), rebalance,
        label="scenario.rebalance",
    )
    net.runtime.run_until_idle()

    moved = net.metrics.counter(
        "shard.rebalance_entries_total", {"realm": REALM}
    ).value
    epoch = net.metrics.gauge("shard.ring_epoch", {"realm": REALM}).value
    referrals = net.metrics.counter(
        "kdc.referral_follows_total", {"realm": REALM}
    ).value
    result = CampaignResult("", seed, {}, makespan=net.clock.now() - START)
    result.account(records)
    result.notes = {
        "entries_moved": int(moved),
        "ring_epoch": int(epoch),
        "referral_follows": int(referrals),
    }
    result.evaluate(
        _slos("shard_rebalance_under_load"),
        {
            "success_rate": result.success_rate(),
            "latency_p99": result.latency_p99,
            "ring_epoch": epoch,
            "entries_moved": moved,
        },
    )
    return result
