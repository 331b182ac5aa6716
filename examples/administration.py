"""Running a realm: administration, replication, failure (Sections 5-6).

The administrator's whole job in one script: initialize the realm, add
users and slaves, watch propagation, change passwords over the network
via the KDBM, and survive a master failure (authentication continues,
administration does not — Figures 10 and 11).

Run:  python examples/administration.py
"""

from repro.core import KerberosError, Principal
from repro.kdbm import KdbmClient
from repro.netsim import Network, Unreachable
from repro.realm import Realm, RealmTopology
from repro.user import kadmin_add_principal, kinit, kpasswd


def main() -> None:
    net = Network()

    print("=== kdb_init + essential principals + two slaves ===")
    realm = Realm(
        net, "ATHENA.MIT.EDU", topology=RealmTopology(slaves_per_shard=2)
    )
    site = realm.shards[0]
    realm.add_admin("jis", "jis-admin-pw")
    realm.add_user("jis", "jis-pw")
    realm.schedule_propagation()  # hourly, per the paper
    print(f"Master: {site.master_host.name}; "
          f"slaves: {[s.host.name for s in site.slaves]}")

    ws = realm.workstation()
    kdbm = KdbmClient(ws.client, site.master_host.address)

    print("\n=== kadmin: register a new user over the network ===")
    print(kadmin_add_principal(kdbm, "jis", "jis-admin-pw", "bcn", "welcome"))

    print("\n=== The new user exists on the master, not yet on slaves ===")
    bcn = Principal("bcn", "", realm.name)
    print(f"  master has bcn: {site.db.exists(bcn)}")
    print(f"  slave-1 has bcn: {site.slaves[0].db.exists(bcn)}")
    print("  ... one simulated hour later (kprop fires) ...")
    net.runtime.run_for(3600)
    print(f"  slave-1 has bcn: {site.slaves[0].db.exists(bcn)}")

    print("\n=== kpasswd: the user changes their own password ===")
    print(f"  {kpasswd(kdbm, 'bcn', 'welcome', 'my-own-secret')}")

    print("\n=== The audit log (all requests, permitted or denied) ===")
    # bcn authenticates fine but tries to change *jis's* password: the
    # KDBM's self-or-ACL rule denies it, and the denial is logged.
    from repro.kdbm.messages import AdminOperation, AdminRequestBody
    from repro.principal import kdbm_principal

    cred = ws.client.as_exchange(bcn, "my-own-secret", kdbm_principal(realm.name))
    reply = kdbm._roundtrip(
        cred, bcn,
        AdminRequestBody(
            operation=int(AdminOperation.CHANGE_PASSWORD),
            target=Principal("jis", "", realm.name),
            new_password="evil",
            max_life=0.0,
        ),
    )
    print(f"  (bcn tried to reset jis's password: ok={reply.ok})")
    for entry in site.kdbm.log:
        status = "PERMITTED" if entry.permitted else "DENIED   "
        print(f"  t={entry.time:>7.0f}  {status} {entry.operation:<16} "
              f"{entry.requester} -> {entry.target}")

    print("\n=== Master machine goes down (Figures 10 and 11) ===")
    # The paper's consistency window: a change made since the last hourly
    # dump exists only on the master.  Wait one propagation interval so
    # the slaves know bcn's new password before the master dies.
    net.runtime.run_for(3600)
    net.set_down(site.master_host.name)
    print(f"  {kinit(ws.client, 'bcn', 'my-own-secret')}")
    print("  (authentication served by a slave)")
    try:
        kpasswd(kdbm, "bcn", "my-own-secret", "another")
    except Unreachable:
        print("  kpasswd: master unreachable — administration requests "
              "cannot be serviced")
    net.set_up(site.master_host.name)
    print("  Master restored.")


if __name__ == "__main__":
    main()
