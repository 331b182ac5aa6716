"""Exp P1 — preauthentication ablation (extension beyond the paper).

The 1988 AS answers anyone's request for anyone's initial ticket — which
lets an attacker *actively harvest* offline-guessing material for every
user in the realm.  Preauthentication (the post-paper fix, implemented
here as an opt-in extension) makes the KDC refuse such probes.

Measured: the harvest rate of an active probing attacker against a realm
with preauth off vs on, and the honest cost — one extra KDC round trip
on the first login.
"""

from repro.database.schema import ATTR_REQUIRE_PREAUTH
from repro.netsim import Network
from repro.principal import Principal
from repro.realm import Realm
from repro.threat import active_as_probe

from benchmarks.bench_util import REALM

N_USERS = 30


def build_realm(preauth: bool, seed: bytes) -> Realm:
    net = Network()
    realm = Realm(net, REALM, seed=seed)
    attributes = ATTR_REQUIRE_PREAUTH if preauth else 0
    for i in range(N_USERS):
        realm.db.add_principal(
            Principal(f"user{i:02d}", "", REALM),
            password=f"pw-{i}",
            attributes=attributes,
        )
    return realm


def harvest(realm: Realm) -> int:
    """The attacker probes every user; returns replies harvested."""
    attacker = realm.net.add_host("harvester")
    got = 0
    for i in range(N_USERS):
        reply = active_as_probe(
            attacker, realm.master_host.address,
            Principal(f"user{i:02d}", "", REALM), REALM,
        )
        if reply is not None:
            got += 1
    return got


def test_bench_preauth_harvest_rates(benchmark):
    open_realm = build_realm(preauth=False, seed=b"p1-open")
    hard_realm = build_realm(preauth=True, seed=b"p1-hard")

    results = benchmark.pedantic(
        lambda: (harvest(open_realm), harvest(hard_realm)), rounds=1
    )
    open_harvest, hard_harvest = results

    print(f"\nPreauth ablation — active probe against {N_USERS} users:")
    print(f"  1988 design (no preauth): {open_harvest}/{N_USERS} "
          f"guessing targets harvested")
    print(f"  preauth required        : {hard_harvest}/{N_USERS}")
    assert open_harvest == N_USERS
    assert hard_harvest == 0


def test_bench_preauth_login_cost(benchmark):
    """What hardening costs the legitimate user: one extra round trip on
    the first (unnegotiated) login."""
    realm = build_realm(preauth=True, seed=b"p1-cost")
    ws = realm.workstation()

    def login():
        ws.client.kdestroy()
        return ws.client.kinit("user00", "pw-0")

    tgt = benchmark(login)
    assert tgt is not None

    realm.net.reset_stats()
    ws.client.kdestroy()
    ws.client.kinit("user00", "pw-0")
    round_trips = realm.net.metrics.total("net.datagrams_total", port="750")
    print(f"\n  KDC round trips per preauth login: "
          f"{round_trips:.0f} (vs 1 without)")
    assert round_trips == 2
