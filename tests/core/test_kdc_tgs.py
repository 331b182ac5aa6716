"""Ticket-granting-server exchange tests (paper Figure 8) — exp F8."""

import pytest

from repro.core import (
    ErrorCode,
    KerberosClient,
    KerberosError,
    MessageType,
    Principal,
    TgsRequest,
    build_authenticator,
    encode_message,
    expect_reply,
    kdbm_principal,
    tgs_principal,
    unseal_ticket,
)
from repro.database.admin_tools import register_service
from repro.netsim.ports import KERBEROS_PORT

from tests.core.conftest import REALM


@pytest.fixture
def logged_in(client):
    client.kinit("jis", "jis-pw")
    return client


def tgs_count(kdc):
    return kdc.metrics.total(
        "kdc.requests_total", kind="tgs", server=kdc.host.name
    )


class TestServerTickets:
    def test_no_password_needed(self, logged_in, rlogin, net):
        """Figure 8's point: the TGT session key secures the exchange;
        the user's key plays no part."""
        service, _ = rlogin
        captured = []
        net.add_tap(lambda d: captured.append(d.payload))
        cred = logged_in.get_credential(service)
        assert cred.service == service
        from repro.crypto import string_to_key

        user_key = string_to_key("jis-pw").key_bytes
        for payload in captured:
            assert user_key not in payload

    def test_ticket_opens_with_service_key(self, logged_in, rlogin, ws):
        service, key = rlogin
        cred = logged_in.get_credential(service)
        ticket = unseal_ticket(cred.ticket, key)
        assert ticket.server.same_entity(service)
        assert str(ticket.client) == f"jis@{REALM}"
        assert ticket.address == ws.address.as_int

    def test_fresh_session_key_per_service(self, logged_in, rlogin, db, keygen):
        service, _ = rlogin
        other = Principal("pop", "mailhost", REALM)
        register_service(db, other, keygen)
        c1 = logged_in.get_credential(service)
        c2 = logged_in.get_credential(other)
        assert c1.session_key != c2.session_key

    def test_ticket_cached_and_reused(self, logged_in, rlogin, kdc):
        service, _ = rlogin
        logged_in.get_credential(service)
        before = tgs_count(kdc)
        logged_in.get_credential(service)
        assert tgs_count(kdc) == before  # cache hit, no new exchange

    def test_expired_cached_ticket_refetched(self, logged_in, rlogin, kdc, net):
        service, _ = rlogin
        logged_in.get_credential(service, life=60.0)
        net.clock.advance(61.0)
        logged_in.get_credential(service)
        assert tgs_count(kdc) == 2

    def test_lifetime_min_of_remaining_tgt_and_service_default(
        self, logged_in, rlogin, net, kdc
    ):
        """Paper: "The lifetime of the new ticket is the minimum of the
        remaining life for the ticket-granting ticket and the default for
        the service"."""
        service, _ = rlogin
        net.clock.advance(6 * 3600.0)  # TGT has 2 h left of its 8
        cred = logged_in.get_credential(service, life=8 * 3600.0)
        assert cred.life == pytest.approx(2 * 3600.0)

    def test_service_default_caps_lifetime(self, logged_in, db, keygen):
        service = Principal("short", "host", REALM)
        register_service(db, service, keygen, max_life=600.0)
        cred = logged_in.get_credential(service)
        assert cred.life == 600.0

    def test_unknown_service(self, logged_in):
        with pytest.raises(KerberosError) as err:
            logged_in.get_credential(Principal("nosuch", "svc", REALM))
        assert err.value.code == ErrorCode.KDC_SERVICE_UNKNOWN

    def test_expired_tgt_requires_kinit(self, logged_in, rlogin, net):
        """Section 6.1: after 8 hours the next Kerberos application
        fails; kinit is the remedy."""
        service, _ = rlogin
        net.clock.advance(9 * 3600.0)
        with pytest.raises(KerberosError) as err:
            logged_in.get_credential(service)
        assert "kinit" in err.value.message
        logged_in.kinit("jis", "jis-pw")
        assert logged_in.get_credential(service) is not None


class TestTgsValidation:
    def test_forged_tgt_rejected(self, kdc, ws, kdc_host, keygen):
        """A TGT sealed with anything but the real TGS key is garbage to
        the TGS."""
        from repro.core.ticket import Ticket, seal_ticket

        fake_key = keygen.session_key()
        session = keygen.session_key()
        tgt = seal_ticket(
            Ticket(
                server=tgs_principal(REALM),
                client=Principal("mallory", "", REALM),
                address=ws.address.as_int,
                timestamp=ws.clock.now(),
                life=28800.0,
                session_key=session.key_bytes,
            ),
            fake_key,
        )
        request = TgsRequest(
            service=Principal("rlogin", "priam", REALM),
            requested_life=3600.0,
            timestamp=ws.clock.now(),
            tgt_realm=REALM,
            tgt=tgt,
            authenticator=build_authenticator(
                Principal("mallory", "", REALM), ws.address, ws.clock.now(), session
            ),
        )
        raw = ws.rpc(
            kdc_host.address,
            KERBEROS_PORT,
            encode_message(MessageType.TGS_REQ, request),
        )
        with pytest.raises(KerberosError) as err:
            expect_reply(raw, MessageType.TGS_REP)
        assert err.value.code == ErrorCode.RD_AP_MODIFIED

    def test_stolen_tgt_from_other_host_rejected(
        self, logged_in, rlogin, net, kdc_host
    ):
        """A thief replaying a captured TGT from another machine trips
        the address check."""
        service, _ = rlogin
        tgt = logged_in.cache.tgt(REALM)
        thief = net.add_host("thief", address="66.6.6.6")
        now = thief.clock.now()
        request = TgsRequest(
            service=service,
            requested_life=3600.0,
            timestamp=now,
            tgt_realm=REALM,
            tgt=tgt.ticket,
            authenticator=build_authenticator(
                logged_in.principal, thief.address, now, tgt.session_key
            ),
        )
        raw = thief.rpc(
            kdc_host.address,
            KERBEROS_PORT,
            encode_message(MessageType.TGS_REQ, request),
        )
        with pytest.raises(KerberosError) as err:
            expect_reply(raw, MessageType.TGS_REP)
        assert err.value.code == ErrorCode.RD_AP_BADD


class TestKdbmProtection:
    """Section 5.1: "the ticket-granting service will not issue tickets
    for it.  Instead, the authentication service itself must be used"."""

    def test_tgs_refuses_kdbm_tickets(self, logged_in):
        with pytest.raises(KerberosError) as err:
            logged_in.get_credential(kdbm_principal(REALM))
        assert err.value.code == ErrorCode.KDC_PR_NOTGT

    def test_as_issues_kdbm_tickets(self, logged_in):
        """The AS path works — it forces a password entry."""
        cred = logged_in.as_exchange(
            Principal("jis", "", REALM), "jis-pw", kdbm_principal(REALM)
        )
        assert cred.service.same_entity(kdbm_principal(REALM))
