"""Shared builders for the benchmark harness.

Each experiment benchmark (one file per figure/claim in DESIGN.md's
per-experiment index) builds its world through these helpers so the
configurations stay comparable across experiments.
"""

from repro.core import KerberosClient, Principal
from repro.netsim import Network
from repro.realm import Realm, RealmTopology

REALM = "ATHENA.MIT.EDU"


def small_realm(slaves: int = 0, seed: bytes = b"bench") -> Realm:
    """A realm with one user (jis) and one service (rlogin.priam)."""
    net = Network()
    realm = Realm(
        net, REALM, seed=seed, topology=RealmTopology(slaves_per_shard=slaves)
    )
    realm.add_user("jis", "jis-pw")
    realm.add_service("rlogin", "priam")
    if slaves:
        realm.propagate()
    return realm


def logged_in_workstation(realm: Realm):
    ws = realm.workstation()
    ws.client.kinit("jis", "jis-pw")
    return ws


def rlogin_principal() -> Principal:
    return Principal("rlogin", "priam", REALM)
