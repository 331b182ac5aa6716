"""Hardening a realm with preauthentication (extension beyond the paper).

Demonstrates the attack that motivated preauthentication — harvesting
offline-guessing material for any user just by asking the KDC — and the
fix, which this library implements as an opt-in extension
(`ATTR_REQUIRE_PREAUTH`), off by default for 1988 fidelity.

Run:  python examples/preauth_hardening.py
"""

from repro.database.schema import ATTR_REQUIRE_PREAUTH
from repro.netsim import Network
from repro.principal import Principal
from repro.realm import Realm
from repro.threat import Eavesdropper, active_as_probe


def main() -> None:
    net = Network()
    realm = Realm(net, "ATHENA.MIT.EDU")
    site = realm.shards[0]
    realm.add_user("open-user", "password")   # 1988 defaults, weak password
    site.db.add_principal(
        Principal("hardened-user", "", realm.name),
        password="password",                  # same weak password
        attributes=ATTR_REQUIRE_PREAUTH,
    )

    attacker = net.add_host("harvester")
    eve = Eavesdropper(net)

    print("=== The attack the 1988 AS permits ===")
    reply = active_as_probe(
        attacker, site.master_host.address,
        Principal("open-user", "", realm.name), realm.name,
    )
    print(f"Attacker asked the KDC for open-user's initial ticket: "
          f"{'GOT material' if reply else 'refused'}")
    guessed = eve.offline_password_guess(
        reply, ["123456", "qwerty", "password", "athena"]
    )
    print(f"Offline dictionary against the harvested reply: "
          f"recovered password = {guessed!r}\n")

    print("=== The same attack against the hardened user ===")
    reply = active_as_probe(
        attacker, site.master_host.address,
        Principal("hardened-user", "", realm.name), realm.name,
    )
    print(f"Attacker asked for hardened-user's ticket: "
          f"{'GOT material' if reply else 'REFUSED (preauth required)'}\n")

    print("=== The legitimate user barely notices ===")
    ws = realm.workstation()
    net.reset_stats()
    ws.client.kinit("hardened-user", "password")
    round_trips = net.metrics.total("net.datagrams_total", port="750")
    print(f"kinit succeeded; KDC round trips: {round_trips:.0f} "
          f"(the extra one is the preauth negotiation)")

    print("\n=== The honest limit ===")
    eve2 = Eavesdropper(net)
    ws2 = realm.workstation()
    ws2.client.kinit("hardened-user", "password")
    captured = eve2.harvest_kdc_replies()
    guessed = eve2.offline_password_guess(
        captured[-1], ["123456", "password"]
    )
    print(f"A passive wiretap on a real login still cracks weak "
          f"passwords: recovered = {guessed!r}")
    print("Preauth closes the active probe, not the wiretap; strong")
    print("passwords remain the real defense (then and now).")


if __name__ == "__main__":
    main()
