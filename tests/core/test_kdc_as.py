"""Authentication-server (AS) exchange tests (paper Figure 5) — exp F5."""

import pytest

from repro.core import (
    AsRequest,
    ErrorCode,
    KerberosError,
    MessageType,
    Principal,
    encode_message,
    expect_reply,
    tgs_principal,
    unseal_ticket,
)
from repro.crypto import string_to_key
from repro.database.schema import ATTR_DISABLED
from repro.netsim.ports import KERBEROS_PORT

from tests.core.conftest import REALM


def raw_as_request(ws, kdc_host, client="jis", life=28800.0, service=None, ts=None):
    request = AsRequest(
        client=Principal(client, "", REALM),
        service=service or tgs_principal(REALM),
        requested_life=life,
        timestamp=ts if ts is not None else ws.clock.now(),
    )
    return ws.rpc(
        kdc_host.address, KERBEROS_PORT, encode_message(MessageType.AS_REQ, request)
    )


class TestInitialTicket:
    def test_reply_decrypts_with_password_key(self, kdc, ws, kdc_host):
        raw = raw_as_request(ws, kdc_host)
        reply = expect_reply(raw, MessageType.AS_REP)
        body = reply.open(string_to_key("jis-pw"))
        assert body.server.same_entity(tgs_principal(REALM))

    def test_password_never_on_wire(self, kdc, ws, kdc_host, net):
        """The central property of Figure 5: only the user's *name*
        travels; the password stays on the workstation."""
        captured = []
        net.add_tap(lambda d: captured.append(d.payload))
        raw_as_request(ws, kdc_host)
        for payload in captured:
            assert b"jis-pw" not in payload
            assert string_to_key("jis-pw").key_bytes not in payload

    def test_wrong_password_cannot_open_reply(self, kdc, ws, kdc_host):
        raw = raw_as_request(ws, kdc_host)
        reply = expect_reply(raw, MessageType.AS_REP)
        with pytest.raises(KerberosError) as err:
            reply.open(string_to_key("not-the-password"))
        assert err.value.code == ErrorCode.INTK_BADPW

    def test_ticket_sealed_in_tgs_key(self, kdc, ws, kdc_host, db):
        raw = raw_as_request(ws, kdc_host)
        body = expect_reply(raw, MessageType.AS_REP).open(string_to_key("jis-pw"))
        tgs_key = db.principal_key(tgs_principal(REALM))
        ticket = unseal_ticket(body.ticket, tgs_key)
        assert ticket.server.same_entity(tgs_principal(REALM))
        assert str(ticket.client) == f"jis@{REALM}"
        assert ticket.address == ws.address.as_int

    def test_session_key_matches_ticket(self, kdc, ws, kdc_host, db):
        raw = raw_as_request(ws, kdc_host)
        body = expect_reply(raw, MessageType.AS_REP).open(string_to_key("jis-pw"))
        ticket = unseal_ticket(body.ticket, db.principal_key(tgs_principal(REALM)))
        assert ticket.session_key == body.session_key

    def test_unknown_client_rejected(self, kdc, ws, kdc_host):
        raw = raw_as_request(ws, kdc_host, client="mallory")
        with pytest.raises(KerberosError) as err:
            expect_reply(raw, MessageType.AS_REP)
        assert err.value.code == ErrorCode.KDC_PR_UNKNOWN

    def test_unknown_service_rejected(self, kdc, ws, kdc_host):
        raw = raw_as_request(
            ws, kdc_host, service=Principal("nosuch", "svc", REALM)
        )
        with pytest.raises(KerberosError) as err:
            expect_reply(raw, MessageType.AS_REP)
        assert err.value.code == ErrorCode.KDC_SERVICE_UNKNOWN

    def test_expired_principal_rejected(self, kdc, ws, kdc_host, db, net):
        db.add_principal(
            Principal("gone", "", REALM), password="x", expiration=10.0
        )
        net.clock.advance(100.0)
        raw = raw_as_request(ws, kdc_host, client="gone")
        with pytest.raises(KerberosError) as err:
            expect_reply(raw, MessageType.AS_REP)
        assert err.value.code == ErrorCode.KDC_PR_EXPIRED

    def test_disabled_principal_rejected(self, kdc, ws, kdc_host, db):
        db.add_principal(
            Principal("locked", "", REALM), password="x", attributes=ATTR_DISABLED
        )
        raw = raw_as_request(ws, kdc_host, client="locked")
        with pytest.raises(KerberosError) as err:
            expect_reply(raw, MessageType.AS_REP)
        assert err.value.code == ErrorCode.KDC_PR_DISABLED

    def test_lifetime_capped_by_policy(self, kdc, ws, kdc_host):
        """Requesting a week yields at most the 8-hour default."""
        raw = raw_as_request(ws, kdc_host, life=7 * 24 * 3600.0)
        body = expect_reply(raw, MessageType.AS_REP).open(string_to_key("jis-pw"))
        assert body.life == 8 * 3600.0

    def test_short_request_honored(self, kdc, ws, kdc_host):
        raw = raw_as_request(ws, kdc_host, life=600.0)
        body = expect_reply(raw, MessageType.AS_REP).open(string_to_key("jis-pw"))
        assert body.life == 600.0

    def test_garbage_request_yields_error_reply(self, kdc, ws, kdc_host):
        raw = ws.rpc(kdc_host.address, KERBEROS_PORT, b"\x01garbage!")
        with pytest.raises(KerberosError) as err:
            expect_reply(raw, MessageType.AS_REP)
        assert err.value.code == ErrorCode.KDC_GEN_ERR

    def test_request_counters(self, kdc, ws, kdc_host):
        raw_as_request(ws, kdc_host)
        raw_as_request(ws, kdc_host, client="mallory")
        assert kdc.metrics.total(
            "kdc.requests_total", kind="as", server=kdc_host.name
        ) == 2
        assert kdc.errors == 1


class TestDegenerateLifetimes:
    def test_negative_requested_life_clamped_to_zero(self, kdc, ws, kdc_host):
        """A hostile or buggy client asking for negative lifetime gets a
        zero-life (instantly expired) ticket, never a time-travelling one."""
        raw = raw_as_request(ws, kdc_host, life=-3600.0)
        body = expect_reply(raw, MessageType.AS_REP).open(string_to_key("jis-pw"))
        assert body.life == 0.0

    def test_zero_life_ticket_unusable(self, kdc, ws, kdc_host, db, net):
        from repro.core import KerberosClient, StaticLocator

        client = KerberosClient(ws, REALM, StaticLocator([kdc_host.address]))
        tgt = client.kinit("jis", "jis-pw", life=0.0)
        assert tgt.expired(net.clock.now() + 0.001)
