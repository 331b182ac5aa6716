"""Exp S9 — Section 9: Kerberos at Project Athena's deployment scale.

*"Since January of 1987, Kerberos has been Project Athena's sole means
of authenticating its 5,000 users, 650 workstations, and 65 servers."*

The benchmark stands up a realm at that registered scale (full 5,000
user + 65 service database, master + 2 slaves) and drives a busy-hour
sample of activity through :class:`repro.workload.AthenaWorkload`.
Shape to hold: the system sustains deployment-scale state and load, and
ticket caching keeps KDC traffic well below one request per service use.

The busy-hour run also snapshots its full metrics registry under
pytest's ``tmp_path`` (see ``docs/OBSERVABILITY.md``) — per-port
datagram counts, AS/TGS outcomes by error code, replay-cache results,
and the AS-exchange latency histogram, all off the simulated clock.
"""

from repro.netsim import Network
from repro.obs import write_json_snapshot
from repro.realm import Realm, RealmTopology
from repro.workload import AthenaWorkload

from benchmarks.bench_util import REALM

N_USERS = 5_000
N_SERVERS = 65
# A sampled busy-hour slice of the 650 workstations.
N_ACTIVE_WORKSTATIONS = 65
USES_PER_SESSION = 6


def build_athena_scale() -> AthenaWorkload:
    net = Network()
    realm = Realm(net, REALM, seed=b"sec9", topology=RealmTopology(slaves_per_shard=2))
    return AthenaWorkload(realm, n_users=N_USERS, n_services=N_SERVERS, seed=1988)


def test_bench_sec9_busy_hour(benchmark, tmp_path):
    workload = build_athena_scale()
    realm = workload.realm
    print(f"\nSection 9 — registered: {len(realm.db)} principals "
          f"({N_USERS} users + {N_SERVERS} services + infrastructure)")

    stats = benchmark.pedantic(
        lambda: workload.busy_hour(
            n_stations=N_ACTIVE_WORKSTATIONS,
            uses_per_session=USES_PER_SESSION,
        ),
        rounds=2,
        iterations=1,
    )

    print(f"  busy-hour sample: {stats.logins} logins, "
          f"{stats.service_uses} service uses")
    print(f"  KDC messages this hour: {stats.kdc_messages}")
    print(f"  KDC requests per service use: "
          f"{stats.kdc_requests_per_use:.2f} (ticket reuse amortizes the TGS)")

    assert stats.logins == N_ACTIVE_WORKSTATIONS
    assert stats.service_uses == N_ACTIVE_WORKSTATIONS * USES_PER_SESSION
    # Shape: caching means fewer KDC exchanges than service uses.
    assert stats.kdc_messages < stats.service_uses

    # Export the registry as the run's metrics snapshot.
    net = realm.net
    snapshot = tmp_path / "sec9_metrics.json"
    snap = write_json_snapshot(
        net.metrics,
        snapshot,
        now=net.clock.now(),
        extra={
            "experiment": "S9",
            "logins": stats.logins,
            "service_uses": stats.service_uses,
            "kdc_messages": stats.kdc_messages,
            "kdc_requests_per_use": stats.kdc_requests_per_use,
        },
    )
    counter_names = {e["name"] for e in snap["counters"]}
    assert {"net.datagrams_total", "kdc.outcomes_total",
            "replay.checks_total"} <= counter_names
    assert any(
        e["name"] == "client.exchange_seconds"
        and e["labels"].get("type") == "as"
        for e in snap["histograms"]
    )
    print(f"  metrics snapshot: {snapshot}")


def test_bench_sec9_kdc_lookup_cost_at_scale(benchmark):
    """A single login against the full 5,000-user database — per-request
    cost must not degrade with registered scale (hash-backed store)."""
    workload = build_athena_scale()
    ws = workload.realm.workstation()

    def login():
        ws.client.kdestroy()
        return ws.client.kinit("user04999", "password-4999")

    tgt = benchmark(login)
    assert tgt is not None
