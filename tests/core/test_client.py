"""Workstation client library tests: kinit, failover, mutual auth."""

import pytest

from repro.core import (
    ErrorCode,
    KerberosClient,
    KerberosError,
    KerberosServer,
    Principal,
    ReplayCache,
    StaticLocator,
    krb_mk_rep,
    krb_rd_req,
    tgs_principal,
)
from repro.netsim import Unreachable

from tests.core.conftest import REALM


class TestKinit:
    def test_sets_owner(self, client, kdc):
        client.kinit("jis", "jis-pw")
        assert str(client.principal) == f"jis@{REALM}"

    def test_tgt_in_cache(self, client, kdc):
        client.kinit("jis", "jis-pw")
        assert client.cache.tgt(REALM) is not None

    def test_wrong_password(self, client, kdc):
        with pytest.raises(KerberosError) as err:
            client.kinit("jis", "wrong")
        assert err.value.code == ErrorCode.INTK_BADPW

    def test_unknown_user(self, client, kdc):
        with pytest.raises(KerberosError) as err:
            client.kinit("mallory", "x")
        assert err.value.code == ErrorCode.KDC_PR_UNKNOWN

    def test_privileged_instance_login(self, client, kdc, db):
        db.add_principal(Principal("treese", "root", REALM), password="root-pw")
        client.kinit("treese", "root-pw", instance="root")
        assert str(client.principal) == f"treese.root@{REALM}"

    def test_requires_kdc_address(self, ws):
        with pytest.raises(ValueError):
            KerberosClient(ws, REALM, StaticLocator([]))


class TestFailover:
    """Figure 10: auth still works when the master is down, via slaves."""

    def test_second_kdc_used_when_first_down(self, net, db, keygen, ws):
        master_host = net.add_host("kerberos-master")
        slave_host = net.add_host("kerberos-1")
        KerberosServer(db, keygen.fork(b"m")).attach(master_host)
        slave_db = db.replica()
        slave_db.load_dump(db.dump())
        KerberosServer(slave_db, keygen.fork(b"s")).attach(slave_host)

        client = KerberosClient(
            ws, REALM, StaticLocator([master_host.address, slave_host.address])
        )
        net.set_down("kerberos-master")
        cred = client.kinit("jis", "jis-pw")  # served by the slave
        assert cred is not None

    def test_all_kdcs_down(self, net, db, keygen, ws):
        host = net.add_host("kerberos-only")
        KerberosServer(db, keygen.fork(b"m")).attach(host)
        client = KerberosClient(ws, REALM, StaticLocator([host.address]))
        net.set_down("kerberos-only")
        with pytest.raises(Unreachable):
            client.kinit("jis", "jis-pw")


class TestMkReq:
    def test_full_ap_exchange(self, client, kdc, rlogin, ws, server_host):
        service, key = rlogin
        client.kinit("jis", "jis-pw")
        request, cred, sent_ts = client.mk_req(service, mutual=True)
        ctx = krb_rd_req(
            request, service, key, ws.address, server_host.clock.now(),
            replay_cache=ReplayCache(),
        )
        assert str(ctx.client) == f"jis@{REALM}"
        client.rd_rep(krb_mk_rep(ctx), sent_ts, cred)

    def test_mk_req_fetches_ticket_automatically(self, client, kdc, rlogin):
        service, _ = rlogin
        client.kinit("jis", "jis-pw")
        assert client.cache.get(service) is None
        client.mk_req(service)
        assert client.cache.get(service) is not None

    def test_successive_requests_have_distinct_timestamps(
        self, client, kdc, rlogin
    ):
        service, _ = rlogin
        client.kinit("jis", "jis-pw")
        _, _, t1 = client.mk_req(service)
        _, _, t2 = client.mk_req(service)
        assert t2 > t1

    def test_mk_req_without_login(self, client, kdc, rlogin):
        service, _ = rlogin
        with pytest.raises(KerberosError):
            client.mk_req(service)


class TestUserCommands:
    def test_klist_shows_accumulated_tickets(self, client, kdc, rlogin):
        """Section 6.1: the user "may be surprised at all the tickets
        which have silently been obtained on her/his behalf"."""
        service, _ = rlogin
        client.kinit("jis", "jis-pw")
        client.get_credential(service)
        names = [str(c.service) for c in client.klist()]
        assert str(tgs_principal(REALM)) in names
        assert str(service) in names

    def test_kdestroy(self, client, kdc, rlogin):
        service, _ = rlogin
        client.kinit("jis", "jis-pw")
        client.get_credential(service)
        assert client.kdestroy() == 2
        assert client.klist() == []
        assert client.principal is None
