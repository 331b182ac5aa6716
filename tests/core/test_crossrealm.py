"""Cross-realm authentication tests (paper Section 7.2) — exp X1."""

import pytest

from repro.core import (
    ErrorCode,
    KerberosClient,
    KerberosError,
    KerberosServer,
    Principal,
    StaticLocator,
    link_realms,
    krb_rd_req,
    tgs_principal,
    unseal_ticket,
)
from repro.core.crossrealm import register_accepting_key, register_issuing_key
from repro.crypto import KeyGenerator
from repro.database.admin_tools import kdb_init, register_service
from repro.netsim import Network

ATHENA = "ATHENA.MIT.EDU"
LCS = "LCS.MIT.EDU"
UW = "CS.WASHINGTON.EDU"


@pytest.fixture
def world():
    """Two linked realms (the paper's Athena and LCS) plus the plumbing."""
    gen = KeyGenerator(seed=b"crossrealm-tests")
    net = Network()
    athena_kdc = net.add_host("athena-kdc")
    lcs_kdc = net.add_host("lcs-kdc")
    ws = net.add_host("ws")

    db_a = kdb_init(ATHENA, "a-pw", gen)
    db_l = kdb_init(LCS, "l-pw", gen)
    db_a.add_principal(Principal("jis", "", ATHENA), password="jis-pw")
    service = Principal("rlogin", "ptt", LCS)
    service_key = register_service(db_l, service, gen)
    link_realms(db_a, db_l, gen)

    KerberosServer(db_a, gen.fork(b"a")).attach(athena_kdc)
    KerberosServer(db_l, gen.fork(b"l")).attach(lcs_kdc)
    client = KerberosClient(ws, ATHENA, StaticLocator([athena_kdc.address]))
    client.set_locator(LCS, StaticLocator([lcs_kdc.address]))
    return dict(
        gen=gen, net=net, ws=ws, client=client,
        db_a=db_a, db_l=db_l, service=service, service_key=service_key,
        athena_kdc=athena_kdc, lcs_kdc=lcs_kdc,
    )


class TestCrossRealmFlow:
    def test_remote_service_ticket_obtained(self, world):
        world["client"].kinit("jis", "jis-pw")
        cred = world["client"].get_credential(world["service"])
        assert cred.service == world["service"]

    def test_client_realm_preserved_in_ticket(self, world):
        """"the realm field for the client contains the name of the realm
        in which the client was originally authenticated"."""
        world["client"].kinit("jis", "jis-pw")
        cred = world["client"].get_credential(world["service"])
        ticket = unseal_ticket(cred.ticket, world["service_key"])
        assert str(ticket.client) == f"jis@{ATHENA}"

    def test_service_sees_foreign_client(self, world):
        world["client"].kinit("jis", "jis-pw")
        request, _, _ = world["client"].mk_req(world["service"])
        ctx = krb_rd_req(
            request,
            world["service"],
            world["service_key"],
            world["ws"].address,
            world["net"].clock.now(),
        )
        # The service can now "choose whether to honor those credentials,
        # depending on ... the level of trust in the realm".
        assert ctx.client.realm == ATHENA

    def test_remote_tgt_cached_and_reused(self, world):
        world["client"].kinit("jis", "jis-pw")
        world["client"].get_credential(world["service"])
        assert world["client"].cache.remote_tgt(ATHENA, LCS) is not None

    def test_remote_tgt_sealed_with_interrealm_key(self, world):
        """Only the inter-realm key opens the cross-realm TGT — neither
        realm's own TGS key does."""
        world["client"].kinit("jis", "jis-pw")
        world["client"].get_credential(world["service"])
        remote_tgt = world["client"].cache.remote_tgt(ATHENA, LCS)
        interrealm = world["db_a"].principal_key(tgs_principal(ATHENA, LCS))
        ticket = unseal_ticket(remote_tgt.ticket, interrealm)
        assert ticket.server.same_entity(tgs_principal(LCS))
        with pytest.raises(KerberosError):
            unseal_ticket(
                remote_tgt.ticket,
                world["db_a"].principal_key(tgs_principal(ATHENA)),
            )

    def test_local_tickets_unaffected(self, world):
        world["db_a"].add_principal(
            Principal("pop", "mail", ATHENA),
            key=world["gen"].session_key(),
        )
        world["client"].kinit("jis", "jis-pw")
        cred = world["client"].get_credential(Principal("pop", "mail", ATHENA))
        assert cred is not None


class TestCrossRealmFailures:
    def test_unlinked_realm_rejected(self, world):
        """Without the exchanged key there is no path (Section 7.2's
        precondition)."""
        gen = world["gen"]
        uw_kdc = world["net"].add_host("uw-kdc")
        db_u = kdb_init(UW, "u-pw", gen)
        service = Principal("rlogin", "june", UW)
        register_service(db_u, service, gen)
        KerberosServer(db_u, gen.fork(b"u")).attach(uw_kdc)
        world["client"].set_locator(UW, StaticLocator([uw_kdc.address]))

        world["client"].kinit("jis", "jis-pw")
        with pytest.raises(KerberosError) as err:
            world["client"].get_credential(service)
        # Athena's own TGS has no issuing key for UW.
        assert err.value.code == ErrorCode.KDC_SERVICE_UNKNOWN

    def test_accepting_realm_without_key_rejects(self, world):
        """One-way registration: Athena can issue, but if LCS lost its
        accepting key the TGT is refused."""
        gen = world["gen"]
        db_l2 = kdb_init(UW, "u2-pw", gen)
        # Athena can issue TGTs for UW...
        register_issuing_key(world["db_a"], UW, gen.session_key())
        # ...but UW never registered the accepting side.
        uw_kdc = world["net"].add_host("uw2-kdc")
        service = Principal("rlogin", "x", UW)
        register_service(db_l2, service, gen)
        KerberosServer(db_l2, gen.fork(b"u2")).attach(uw_kdc)
        world["client"].set_locator(UW, StaticLocator([uw_kdc.address]))

        world["client"].kinit("jis", "jis-pw")
        with pytest.raises(KerberosError) as err:
            world["client"].get_credential(service)
        assert err.value.code == ErrorCode.KDC_NO_CROSS_REALM

    def test_no_locator_for_realm(self, world):
        world["client"].kinit("jis", "jis-pw")
        with pytest.raises(KerberosError) as err:
            world["client"].get_credential(Principal("svc", "h", "UNKNOWN.REALM"))
        assert err.value.code == ErrorCode.KDC_SERVICE_UNKNOWN

    def test_realm_chaining_refused(self, world):
        """The paper stops at one hop: "it would be necessary to record
        the entire path that was taken" — so a foreign client may not be
        issued a further cross-realm TGT."""
        gen = world["gen"]
        # Link LCS -> UW as well, so the chain A -> LCS -> UW is tempting.
        uw_kdc = world["net"].add_host("uw3-kdc")
        db_u = kdb_init(UW, "u3-pw", gen)
        link_realms(world["db_l"], db_u, gen)
        KerberosServer(db_u, gen.fork(b"u3")).attach(uw_kdc)

        client = world["client"]
        client.set_locator(UW, StaticLocator([uw_kdc.address]))
        client.kinit("jis", "jis-pw")
        # Get a TGT for LCS (one hop — fine)...
        client.get_credential(world["service"])
        remote_tgt = client.cache.remote_tgt(ATHENA, LCS)
        assert remote_tgt is not None
        # ...then try to use it at LCS to reach UW (second hop).
        with pytest.raises(KerberosError) as err:
            client._tgs_exchange(LCS, remote_tgt, tgs_principal(LCS, UW), None)
        assert err.value.code == ErrorCode.KDC_NO_CROSS_REALM


class TestAsDirectCrossRealm:
    def test_as_can_issue_remote_tgt_directly(self, world):
        """The historical alternative path: ask the *authentication
        service* (not the TGS) for the remote realm's TGT.  Works because
        the remote TGS is just another service principal in the local
        database; costs a password-key decryption instead of a TGT one."""
        client = world["client"]
        cred = client.as_exchange(
            Principal("jis", "", ATHENA),
            "jis-pw",
            tgs_principal(ATHENA, LCS),
        )
        # The remote TGT from the AS is as good as one from the TGS.
        client.cache.owner = Principal("jis", "", ATHENA)
        remote_tgt = client.cache.remote_tgt(ATHENA, LCS)
        assert remote_tgt is not None
        service_cred = client._tgs_exchange(LCS, remote_tgt, world["service"], None)
        ticket = unseal_ticket(service_cred.ticket, world["service_key"])
        assert str(ticket.client) == f"jis@{ATHENA}"
