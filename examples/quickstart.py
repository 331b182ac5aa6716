"""Quickstart: a complete Kerberos realm in 60 lines.

Walks the full Figure 9 protocol: a user logs in (AS exchange), obtains
a service ticket (TGS exchange), and authenticates to a Kerberized
service with mutual authentication (AP exchange) — then inspects and
destroys their tickets.

Run:  python examples/quickstart.py
"""

from repro.core import ReplayCache, krb_mk_rep, krb_rd_req
from repro.netsim import Network
from repro.realm import Realm, RealmTopology
from repro.user import kdestroy, kinit, klist


def main() -> None:
    # --- The administrator's setup (paper Section 6.3) -------------------
    net = Network()
    realm = Realm(
        net, "ATHENA.MIT.EDU", topology=RealmTopology(slaves_per_shard=1)
    )
    realm.add_user("jis", "jis-password")
    rlogin, rlogin_key = realm.add_service("rlogin", "priam")
    srvtab = realm.srvtab_for(rlogin)      # installed on priam

    # --- Phase 1: the initial ticket (Figure 5) ---------------------------
    ws = realm.workstation("jis-workstation")
    print(kinit(ws.client, "jis", "jis-password"))

    # --- Phase 2: a ticket for the rlogin service (Figure 8) --------------
    # (Happens implicitly inside mk_req; no password needed again.)
    request, cred, sent_at = ws.client.mk_req(rlogin, mutual=True)
    print(f"\nObtained a ticket for {cred.service} "
          f"(lifetime {cred.life / 3600:.0f} h)")

    # --- Phase 3: presenting credentials (Figures 6 and 7) ----------------
    replay_cache = ReplayCache()
    context = krb_rd_req(
        request,
        service=rlogin,
        service_key_or_srvtab=srvtab,
        packet_address=ws.host.address,
        now=net.clock.now(),
        replay_cache=replay_cache,
    )
    print(f"priam's rlogin server authenticated the request: "
          f"client is {context.client}")

    # Mutual authentication: the server proves itself back.
    ws.client.rd_rep(krb_mk_rep(context), sent_at, cred)
    print("Mutual authentication succeeded: the server is genuine.\n")

    # --- The user's view (Section 6.1) -------------------------------------
    print(klist(ws.client))
    print()
    print(kdestroy(ws.client))


if __name__ == "__main__":
    main()
