"""The paper's Section 8 open problems, demonstrated (not solved).

*"An open problem is the proxy problem.  How can an authenticated user
allow a server to acquire other network services on her/his behalf? ...
Another example of this problem is what we call authentication
forwarding. ... We do not presently have a solution to this problem."*

These tests show precisely *why* it is a problem in the 1988 design:
tickets are bound to the workstation's network address, so nothing a
user can hand to another machine works from there — which is both the
security property (stolen tickets die off-host, tested elsewhere) and
the usability hole (legitimate delegation is impossible).  V5's
forwardable/proxiable tickets were the eventual answer; per DESIGN.md
they are out of scope here.
"""

import pytest

from repro.apps.rlogin import RloginServer, rsh
from repro.core import (
    ErrorCode,
    KerberosClient,
    KerberosError,
    Principal,
    StaticLocator,
    krb_mk_req,
    krb_rd_req,
)
from repro.netsim import Network
from repro.realm import Realm

REALM = "ATHENA.MIT.EDU"


@pytest.fixture
def world():
    net = Network()
    realm = Realm(net, REALM)
    realm.add_user("jis", "jis-pw")
    # A compute server and a fileserver-ish service, plus rlogin on priam.
    nfs_service, nfs_key = realm.add_service("nfs", "fileserver")
    rcmd_service, _ = realm.add_service("rcmd", "priam")
    priam = net.add_host("priam")
    rlogind = RloginServer(rcmd_service, realm.srvtab_for(rcmd_service)).attach(priam)
    rlogind.add_account("jis")
    return dict(
        net=net, realm=realm, nfs_service=nfs_service, nfs_key=nfs_key,
        rcmd_service=rcmd_service, priam=priam,
    )


class TestProxyProblem:
    """"the use of a service that will gain access to protected files
    directly from a fileserver" — a print server, say."""

    def test_handed_over_credentials_fail_from_the_proxy(self, world):
        net, realm = world["net"], world["realm"]
        ws = realm.workstation()
        ws.client.kinit("jis", "jis-pw")
        cred = ws.client.get_credential(world["nfs_service"])

        # The user hands their credential to a print server, asking it
        # to fetch a file on their behalf.  The print server builds the
        # best request it can...
        print_server = net.add_host("printserver")
        request = krb_mk_req(
            ticket_blob=cred.ticket,
            session_key=cred.session_key,
            client=Principal("jis", "", REALM),
            client_address=print_server.address,
            now=print_server.clock.now(),
        )
        # ...and the fileserver rejects it: the ticket names the user's
        # workstation, not the print server.
        with pytest.raises(KerberosError) as err:
            krb_rd_req(
                request, world["nfs_service"], world["nfs_key"],
                print_server.address, net.clock.now(),
            )
        assert err.value.code == ErrorCode.RD_AP_BADD

    def test_no_ticket_the_user_can_request_helps(self, world):
        """Even a fresh ticket requested *for* the proxy scenario is
        still issued to the requesting workstation's address — the KDC
        writes the address from the packet, not from any field the user
        controls."""
        net, realm = world["net"], world["realm"]
        ws = realm.workstation()
        ws.client.kinit("jis", "jis-pw")
        # Force a brand-new ticket; it is still bound to ws's address.
        ws.client.cache._creds.pop(str(world["nfs_service"]), None)
        cred = ws.client.get_credential(world["nfs_service"])
        from repro.core import unseal_ticket

        ticket = unseal_ticket(cred.ticket, world["nfs_key"])
        assert ticket.address == ws.host.address.as_int


class TestAuthenticationForwarding:
    """Paper: "If a user is logged into a workstation and logs in to a
    remote host, it would be nice if the user had access to the same
    services available locally, while running a program on the remote
    host"."""

    def test_remote_session_has_no_usable_credentials(self, world):
        net, realm = world["net"], world["realm"]
        ws = realm.workstation()
        ws.client.kinit("jis", "jis-pw")

        # jis rlogins to priam (works: that is an ordinary AP exchange).
        output = rsh(
            ws.client, world["rcmd_service"], world["priam"].address, "w"
        )
        assert "w" in output

        # A program now running ON priam wants jis's files.  Option 1:
        # use tickets copied from the workstation — dies on the address
        # check (the proxy problem again, from priam this time).
        cred = ws.client.get_credential(world["nfs_service"])
        request = krb_mk_req(
            ticket_blob=cred.ticket,
            session_key=cred.session_key,
            client=Principal("jis", "", REALM),
            client_address=world["priam"].address,
            now=net.clock.now(),
        )
        with pytest.raises(KerberosError) as err:
            krb_rd_req(
                request, world["nfs_service"], world["nfs_key"],
                world["priam"].address, net.clock.now(),
            )
        assert err.value.code == ErrorCode.RD_AP_BADD

    def test_the_workaround_requires_the_password_again(self, world):
        """Option 2 — the only thing that works in the 1988 design: type
        the password again on the remote host (fresh kinit from priam's
        address).  Which is exactly the paper's concern: "the user might
        not trust the remote host", and now it has their password."""
        net, realm = world["net"], world["realm"]
        priam_client = KerberosClient(
            world["priam"], REALM, StaticLocator([realm.master_host.address])
        )
        priam_client.kinit("jis", "jis-pw")   # password typed on priam!
        request, _, _ = priam_client.mk_req(world["nfs_service"])
        ctx = krb_rd_req(
            request, world["nfs_service"], world["nfs_key"],
            world["priam"].address, net.clock.now(),
        )
        assert ctx.client.name == "jis"
        # It works — at the price of trusting priam with the password,
        # the tradeoff the paper declines to make automatically.
