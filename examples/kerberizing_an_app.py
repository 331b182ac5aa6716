"""Kerberizing a program — the programmer's viewpoint (paper Section 6.2).

The paper: *"A programmer writing a Kerberos application will often be
adding authentication to an already existing network application
consisting of a client and server side.  We call this process
'Kerberizing' a program."*

This script does exactly that, before/after style, with a toy "fortune"
service: first the pre-Kerberos version (trusts whatever name the client
claims), then the Kerberized version (three lines of change on each
side), then proof that the old identity-spoofing trick died in the
process.

Run:  python examples/kerberizing_an_app.py
"""

from repro.apps.kerberized import KerberizedChannel, KerberizedServer, Protection
from repro.core import KerberosError
from repro.netsim import Network
from repro.realm import Realm

FORTUNES = {
    "jis": "You will administer great systems.",
    "bcn": "A naming service is in your future.",
    "default": "Your tickets will always be fresh.",
}


# --------------------------------------------------------------------------
# BEFORE: the classic network app.  The request carries a *claimed* user.
# --------------------------------------------------------------------------

def legacy_fortune_server(datagram):
    claimed_user = datagram.payload.decode()
    fortune = FORTUNES.get(claimed_user, FORTUNES["default"])
    return f"{claimed_user}: {fortune}".encode()


def legacy_fortune_client(host, server_addr, username):
    return host.rpc(server_addr, 1717, username.encode()).decode()


# --------------------------------------------------------------------------
# AFTER: the Kerberized version.  krb_mk_req / krb_rd_req via the framework;
# the server uses the AUTHENTICATED name and ignores any claims.
# --------------------------------------------------------------------------

class KerberizedFortuneServer(KerberizedServer):
    def handle(self, session, data: bytes) -> bytes:
        user = session.client.name            # authenticated, not claimed
        fortune = FORTUNES.get(user, FORTUNES["default"])
        return f"{user}: {fortune}".encode()


def main() -> None:
    net = Network()
    realm = Realm(net, "ATHENA.MIT.EDU")
    realm.add_user("jis", "jis-pw")
    realm.add_user("bcn", "bcn-pw")
    server_host = net.add_host("fortunehost")

    print("=== BEFORE: the un-Kerberized fortune service ===")
    server_host.bind(1717, legacy_fortune_server)
    ws = realm.workstation()
    print(" bcn asks politely:  ", legacy_fortune_client(ws.host, server_host.address, "bcn"))
    print(" bcn claims to be jis:", legacy_fortune_client(ws.host, server_host.address, "jis"))
    print(" (nothing stopped the lie — Section 1's 'do nothing' approach)\n")

    print("=== Kerberizing it (Section 6.2) ===")
    # The administrator registers the service and installs its srvtab...
    service, _ = realm.add_service("fortune", "fortunehost")
    srvtab = realm.srvtab_for(service)
    # ...and the programmer swaps the handler for a KerberizedServer.
    KerberizedFortuneServer(service, srvtab, port=1718).attach(server_host)
    print("Registered fortune.fortunehost, extracted srvtab, server up.\n")

    print("=== AFTER ===")
    ws.client.kinit("bcn", "bcn-pw")
    channel = KerberizedChannel(ws.client, service, server_host.address, 1718,
                                protection=Protection.NONE, mutual=True)
    print(" bcn connects:       ", channel.call(b"fortune please").decode())
    print(" (the name came from the ticket — there is nothing to lie about)")

    print("\n=== And without tickets? ===")
    stranger = realm.workstation()
    try:
        KerberizedChannel(stranger.client, service, server_host.address, 1718)
    except KerberosError as exc:
        print(f" stranger refused: {exc.code.name}")


if __name__ == "__main__":
    main()
