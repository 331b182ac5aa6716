"""The shipped campaign library: eleven drills, each one row of data.

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
* ``request_plane_saturation`` — an open-loop AS storm at twice the
  batch plane's capacity: excess arrivals are shed with a typed
  ``KDC_OVERLOADED`` (clients retry and mostly recover), and admitted
  requests keep their latency.
* ``nfs_fleet_mount_storm`` — the appendix's Kerberized NFS at fleet
  scale: a mount wave with a cross-user leak probe on every station;
  no byte crosses a user boundary and unmount leaves no mapping.
* ``shard_rebalance_under_load`` — a live ``move_range`` mid-storm: the
  double-serve window plus referral repair keep every login succeeding
  while a hash range changes shards.
* ``athena_hour`` — Section 9 itself: 5,000 users and 65 services on a
  master and two slaves; a 65-station sample of the busy hour logs in
  and works its sessions, and ticket caching keeps the KDC below one
  request per service use.
* ``login_burst`` — the open-loop 9 AM storm at one queued KDC: every
  station posts its AS request inside a fraction of a second; the
  overflow is shed typed, nothing is lost.

Rows are written as changes against an earlier row.  Every run builds
its own :class:`~repro.netsim.network.Network` from its seed, so results
are a pure function of ``(campaign, seed, params)``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Union

from repro.core.retry import RetryPolicy
from repro.netsim import Jitter, Loss, Match
from repro.netsim.ports import KERBEROS_PORT
from repro.realm import RealmTopology
from repro.runtime.workqueue import WorkQueueConfig
from repro.scenarios import engine
from repro.scenarios.engine import (
    START,
    AddRule,
    Campaign,
    CampaignResult,
    Crash,
    Rebalance,
    SloSpec,
    capacity,
    echo_server,
    hesiod,
    incremental_propagation,
    login,
    mount,
    nfs_fleet,
    post_login,
    supervisor,
    use_app,
)


def no_faults(p) -> tuple:
    return ()


def lossy_wan(p) -> tuple:
    """Both legs of every KDC exchange cross the bad link from the start."""
    legs = (Match.build(port=KERBEROS_PORT), Match.build(src_port=KERBEROS_PORT))
    rules = [Loss(p["loss_rate"], leg) for leg in legs]
    rules += [Jitter(0.1, p["jitter_high"], leg) for leg in legs]
    return tuple(AddRule(rule) for rule in rules)


def kdc_queue(p) -> WorkQueueConfig:
    """One worker draining batches of eight behind a bounded queue."""
    return WorkQueueConfig(workers=1, batch_size=8, queue_limit=int(p["queue_limit"]))


MORNING_LOGIN_STORM = Campaign(
    name="morning_login_storm",
    description="9 AM arrival wave against master + 2 slaves",
    defaults={"n_stations": 48, "n_users": 48, "window": 60.0},
    slos=(
        SloSpec("success_rate", "min", 0.99, "logins that obtained a TGT"),
        SloSpec("latency_p95", "max", 5.0, "p95 login latency (sim s)"),
    ),
    topology=lambda p: RealmTopology(slaves_per_shard=2),
    daemons=(),
    spread=True,
    retry=None,
    act=login,
    shape="paced",
    window=lambda p: p["window"],
    faults=no_faults,
)

SLAVE_OUTAGE_PEAK = replace(
    MORNING_LOGIN_STORM,
    name="slave_outage_peak",
    description="one slave KDC crashes mid-storm; its clients fail over",
    slos=(
        SloSpec("success_rate", "min", 0.99, "logins despite the outage"),
        SloSpec("latency_p95", "max", 10.0, "p95 includes failover hops"),
    ),
    # The first slave dies a third of the way into the wave and stays
    # down past its end — every station that preferred it must hop.
    faults=lambda p: (Crash(START + p["window"] / 3, 2 * p["window"], slave=0),),
)

MASTER_ASSASSINATION = replace(
    MORNING_LOGIN_STORM,
    name="master_assassination",
    description="master KDC killed at peak; supervisor must promote, re-point, rejoin",
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
    # Discovery lives in Hesiod, and every workstation also gets a
    # direct re-point on promotion.
    daemons=(incremental_propagation, hesiod, supervisor),
    faults=lambda p: (Crash(p["kill_at"], p["downtime"], slave=None),),
)

ROLLING_KDC_UPGRADE = replace(
    MORNING_LOGIN_STORM,
    name="rolling_kdc_upgrade",
    description="bounce every KDC in sequence; no login fails, no spurious promotion",
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
    # The supervisor watches the whole time: a short bounce (below its
    # miss threshold) must never look like an assassination.
    daemons=(supervisor,),
    faults=lambda p: tuple(
        Crash(START + 25.0 + i * 40.0, p["bounce_downtime"], slave)
        for i, slave in enumerate((0, 1, None))
    ),
)

CLOCK_SKEW_EPIDEMIC = replace(
    MORNING_LOGIN_STORM,
    name="clock_skew_epidemic",
    description="a fraction of the fleet drifts past the 5-minute skew window",
    defaults={"n_stations": 40, "n_users": 40, "skew": 600.0, "skew_fraction": 0.3},
    slos=(
        SloSpec("healthy_success_rate", "min", 0.99,
                "in-sync stations keep working"),
        SloSpec("skewed_refusal_rate", "min", 0.99,
                "drifted stations are refused, as the paper requires"),
    ),
    topology=lambda p: RealmTopology(slaves_per_shard=1),
    daemons=(echo_server,),
    spread=False,
    act=use_app,
    window=lambda p: 1.5 * int(p["n_stations"]),  # one arrival every 1.5 s
)

LOSSY_WAN_DEGRADATION = replace(
    CLOCK_SKEW_EPIDEMIC,
    name="lossy_wan_degradation",
    description="remote campus behind a lossy, jittery WAN; retries carry the day",
    defaults={"n_stations": 40, "n_users": 40, "window": 120.0,
              "loss_rate": 0.15, "jitter_high": 2.0},
    slos=(
        SloSpec("success_rate", "min", 0.95, "retries absorb the loss"),
        SloSpec("latency_p95", "max", 120.0, "degraded, but bounded"),
    ),
    daemons=(),
    retry=RetryPolicy(max_attempts=5, base_delay=1.0, multiplier=2.0, max_delay=8.0),
    act=login,
    window=lambda p: p["window"],
    faults=lossy_wan,
)

REQUEST_PLANE_SATURATION = replace(
    MORNING_LOGIN_STORM,
    name="request_plane_saturation",
    description="open-loop AS storm at 2x KDC capacity; sheds typed, admitted fast",
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
    topology=lambda p: RealmTopology(kdc_queue=kdc_queue(p)),
    # Arrivals are scheduled by the clock, never by completions, at
    # ``overload_factor`` times what the loop can serve.
    window=lambda p: int(p["n_stations"]) / (
        capacity(kdc_queue(p)) * float(p["overload_factor"])
    ),
)

NFS_FLEET_MOUNT_STORM = replace(
    CLOCK_SKEW_EPIDEMIC,
    name="nfs_fleet_mount_storm",
    description="paced mount wave across an NFS fleet; no leaks, no residue",
    defaults={"n_servers": 4, "n_stations": 32, "n_users": 16, "window": 60.0},
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
    daemons=(nfs_fleet,),
    act=mount,
    window=lambda p: p["window"],
)

SHARD_REBALANCE_UNDER_LOAD = replace(
    MORNING_LOGIN_STORM,
    name="shard_rebalance_under_load",
    description="live move_range mid-storm: zero auth failures, p99 stays bounded",
    defaults={"n_stations": 40, "n_users": 40, "n_shards": 2,
              "window": 90.0, "move_at": 30.0},
    # Zero failures: a rebalance that bounces even one user is a failed
    # rebalance; a referral costs one round trip, not a timeout.
    slos=(
        SloSpec("success_rate", "min", 1.0,
                "no login fails while the range moves"),
        SloSpec("latency_p99", "max", 10.0,
                "p99 bounded through the handoff (referral = one hop)"),
        SloSpec("ring_epoch", "min", 2.0, "the ring actually flipped"),
        SloSpec("entries_moved", "min", 1.0, "records really streamed"),
    ),
    topology=lambda p: RealmTopology(shards=int(p["n_shards"])),
    faults=lambda p: (Rebalance(START + p["move_at"]),),
)

ATHENA_HOUR = replace(
    MORNING_LOGIN_STORM,
    name="athena_hour",
    description="Section 9: 5,000 users, 65 servers; a busy-hour sample works its sessions",
    defaults={"n_stations": 65, "n_users": 5000, "n_services": 65,
              "uses_per_session": 6, "working_set": 3, "window": 3600.0},
    slos=(
        SloSpec("success_rate", "min", 1.0, "every login and service use"),
        SloSpec("kdc_requests_per_use", "max", 1.0,
                "ticket caching amortizes the KDC"),
    ),
    shape="session",
)

LOGIN_BURST = replace(
    MORNING_LOGIN_STORM,
    name="login_burst",
    description="open-loop AS burst at one queued KDC; the overflow is shed typed",
    defaults={"n_stations": 128, "n_users": 64, "workers": 2, "window": 0.05},
    slos=(
        SloSpec("shed_total", "min", 1.0, "arrivals outpace the workers"),
        SloSpec("clean_failure_rate", "min", 1.0,
                "every failure is a typed shed, never a loss"),
    ),
    topology=lambda p: RealmTopology(kdc_queue=WorkQueueConfig(workers=int(p["workers"]))),
    spread=False,
    act=post_login,
    shape="burst",
)

#: The registry: every shipped campaign.
CAMPAIGNS = (
    MORNING_LOGIN_STORM,
    SLAVE_OUTAGE_PEAK,
    MASTER_ASSASSINATION,
    ROLLING_KDC_UPGRADE,
    CLOCK_SKEW_EPIDEMIC,
    LOSSY_WAN_DEGRADATION,
    REQUEST_PLANE_SATURATION,
    NFS_FLEET_MOUNT_STORM,
    SHARD_REBALANCE_UNDER_LOAD,
    ATHENA_HOUR,
    LOGIN_BURST,
)


def names() -> List[str]:
    return sorted(c.name for c in CAMPAIGNS)


def get(name: str) -> Campaign:
    for row in CAMPAIGNS:
        if row.name == name:
            return row
    raise KeyError(f"no campaign {name!r}; available: {', '.join(names())}")


def run(campaign: Union[str, Campaign], seed: int = 1988, **overrides: object) -> CampaignResult:
    """Run one campaign, named or a row, at a seed; deterministic end to
    end.  ``overrides`` change its parameters (:meth:`Campaign.override`)."""
    row = get(campaign) if isinstance(campaign, str) else campaign
    return engine.run(row, seed, **overrides)
