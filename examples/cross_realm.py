"""Cross-realm authentication (paper Section 7.2).

The paper's own scenario: "the relation between the Project Athena
Kerberos and the Kerberos running at MIT's Laboratory for Computer
Science."  A user registered at ATHENA.MIT.EDU uses a service at
LCS.MIT.EDU on the strength of their home-realm authentication; the
service sees exactly which realm vouched for them.

Run:  python examples/cross_realm.py
"""

from repro.core import KerberosError, StaticLocator, krb_rd_req, unseal_ticket
from repro.netsim import Network
from repro.realm import Realm, link


def main() -> None:
    net = Network()

    print("=== Two administrative domains stand up their own Kerberi ===")
    athena = Realm(net, "ATHENA.MIT.EDU", seed=b"athena")
    lcs = Realm(net, "LCS.MIT.EDU", seed=b"lcs")
    athena.add_user("jis", "jis-password")
    rlogin_lcs, rlogin_key = lcs.add_service("rlogin", "ptt")

    print("=== The administrators exchange an inter-realm key ===")
    link(athena, lcs)

    ws = athena.workstation("jis-ws")
    ws.client.set_locator(
        "LCS.MIT.EDU", StaticLocator([lcs.shards[0].master_host.address])
    )

    print("\njis logs in at home (ATHENA) ...")
    ws.client.kinit("jis", "jis-password")

    print("... and asks for rlogin.ptt@LCS.MIT.EDU.")
    cred = ws.client.get_credential(rlogin_lcs)
    print("Tickets now held:")
    for c in ws.client.klist():
        print(f"  {c.service}")

    print("\nThe LCS service authenticates the request:")
    request, _, _ = ws.client.mk_req(rlogin_lcs)
    context = krb_rd_req(
        request, rlogin_lcs, rlogin_key, ws.host.address, net.clock.now()
    )
    print(f"  client = {context.client}")
    print('  ("the realm field for the client contains the name of the')
    print('   realm in which the client was originally authenticated")')

    ticket = unseal_ticket(cred.ticket, rlogin_key)
    assert str(ticket.client) == "jis@ATHENA.MIT.EDU"

    print("\n=== An unlinked realm gets nothing ===")
    uw = Realm(net, "CS.WASHINGTON.EDU", seed=b"uw")
    uw_service, _ = uw.add_service("rlogin", "june")
    ws.client.set_locator(
        "CS.WASHINGTON.EDU", StaticLocator([uw.shards[0].master_host.address])
    )
    try:
        ws.client.get_credential(uw_service)
    except KerberosError as exc:
        print(f"jis -> CS.WASHINGTON.EDU: {exc}")
    print("(no inter-realm key was ever exchanged with that realm)")


if __name__ == "__main__":
    main()
