"""End-to-end tests of the full Figure 9 protocol flow — exp F9.

Figure 9 summarizes the three phases:

1. AS exchange  — (c, tgs) -> {K_c,tgs, {T_c,tgs}K_tgs}K_c
2. TGS exchange — (s, {T_c,tgs}K_tgs, A_c) -> {K_c,s, {T_c,s}K_s}K_c,tgs
3. AP exchange  — ({T_c,s}K_s, A_c) -> service (+ optional {ts+1}K_c,s)
"""

import pytest

from repro.core import (
    Principal,
    ReplayCache,
    SrvTab,
    StaticLocator,
    krb_mk_rep,
    krb_rd_req,
)
from repro.netsim.ports import KERBEROS_PORT

from tests.core.conftest import REALM


class TestFigure9:
    def test_three_phases_six_messages(self, client, kdc, rlogin, ws, net):
        """The complete login-to-service path is exactly three round
        trips: AS, TGS, AP."""
        service, key = rlogin
        net.reset_stats()

        client.kinit("jis", "jis-pw")                       # phase 1
        request, cred, ts = client.mk_req(service, mutual=True)  # phase 2
        ctx = krb_rd_req(request, service, key, ws.address, 0.0)  # phase 3 (in-process)
        reply = krb_mk_rep(ctx)
        client.rd_rep(reply, ts, cred)

        # Phases 1 and 2 each cost one KDC round trip (2 datagrams each).
        assert net.metrics.total("net.datagrams_total", port="750") == 2
        assert net.metrics.total("net.datagrams_total") == 4

    def test_key_usage_chain(self, client, kdc, rlogin, ws, db):
        """Verify exactly which key opens which envelope, per Figure 9."""
        from repro.core import tgs_principal, unseal_ticket
        from repro.crypto import string_to_key

        service, service_key = rlogin
        client.kinit("jis", "jis-pw")
        tgt_cred = client.cache.tgt(REALM)

        # The TGT is opaque to the client but opens with the TGS key.
        tgs_key = db.principal_key(tgs_principal(REALM))
        tgt = unseal_ticket(tgt_cred.ticket, tgs_key)
        assert tgt.session_key == tgt_cred.session_key.key_bytes

        # The service ticket opens with the service key and carries a
        # session key distinct from the TGT's.
        service_cred = client.get_credential(service)
        ticket = unseal_ticket(service_cred.ticket, service_key)
        assert ticket.session_key == service_cred.session_key.key_bytes
        assert ticket.session_key != tgt.session_key

        # And the user's password key opens neither ticket.
        user_key = string_to_key("jis-pw")
        from repro.core import KerberosError

        with pytest.raises(KerberosError):
            unseal_ticket(tgt_cred.ticket, user_key)
        with pytest.raises(KerberosError):
            unseal_ticket(service_cred.ticket, user_key)

    def test_transparency_multiple_services(self, client, kdc, db, keygen, ws):
        """Section 1's transparency requirement: after one password entry
        the user reaches any number of services."""
        from repro.database.admin_tools import register_service

        services = []
        for name, host in (("rlogin", "priam"), ("pop", "mailhost"), ("nfs", "fs1")):
            s = Principal(name, host, REALM)
            services.append((s, register_service(db, s, keygen)))

        client.kinit("jis", "jis-pw")  # the only password entry
        cache = ReplayCache()
        for service, key in services:
            request, _, _ = client.mk_req(service)
            ctx = krb_rd_req(
                request, service, key, ws.address, ws.clock.now(), cache
            )
            assert str(ctx.client) == f"jis@{REALM}"

    def test_two_users_do_not_interfere(self, net, kdc, kdc_host, rlogin, db):
        from repro.core import KerberosClient

        service, key = rlogin
        ws1 = net.add_host("ws-a")
        ws2 = net.add_host("ws-b")
        c1 = KerberosClient(ws1, REALM, StaticLocator([kdc_host.address]))
        c2 = KerberosClient(ws2, REALM, StaticLocator([kdc_host.address]))
        c1.kinit("jis", "jis-pw")
        c2.kinit("bcn", "bcn-pw")

        cache = ReplayCache()
        r1, _, _ = c1.mk_req(service)
        r2, _, _ = c2.mk_req(service)
        ctx1 = krb_rd_req(r1, service, key, ws1.address, 0.0, cache)
        ctx2 = krb_rd_req(r2, service, key, ws2.address, 0.0, cache)
        assert ctx1.client.name == "jis"
        assert ctx2.client.name == "bcn"
        assert ctx1.session_key != ctx2.session_key

    def test_users_ticket_unusable_from_other_workstation(
        self, net, kdc, kdc_host, rlogin
    ):
        """Credentials stolen from one workstation fail the address check
        when presented from another."""
        from repro.core import ErrorCode, KerberosClient, KerberosError, krb_mk_req

        service, key = rlogin
        ws1 = net.add_host("victim-ws")
        thief_ws = net.add_host("thief-ws")
        victim = KerberosClient(ws1, REALM, StaticLocator([kdc_host.address]))
        victim.kinit("jis", "jis-pw")
        cred = victim.get_credential(service)

        # The thief has the full credential (ticket AND session key).
        stolen_req = krb_mk_req(
            ticket_blob=cred.ticket,
            session_key=cred.session_key,
            client=Principal("jis", "", REALM),
            client_address=thief_ws.address,  # their own address
            now=thief_ws.clock.now(),
        )
        with pytest.raises(KerberosError) as err:
            krb_rd_req(stolen_req, service, key, thief_ws.address, 0.0)
        assert err.value.code == ErrorCode.RD_AP_BADD
