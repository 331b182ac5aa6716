"""Administration server tests (paper Section 5.1, Figures 11-12)."""

import pytest

from repro.core import ErrorCode, KerberosError, Principal, kdbm_principal
from repro.crypto import string_to_key
from repro.database import ReadOnlyDatabase
from repro.kdbm import KdbmClient, KdbmServer
from repro.netsim import Network, Unreachable
from repro.realm import Realm, RealmTopology

REALM = "ATHENA.MIT.EDU"


@pytest.fixture
def realm():
    net = Network()
    r = Realm(net, REALM, topology=RealmTopology(slaves_per_shard=1))
    r.add_user("jis", "jis-pw")
    r.add_user("bcn", "bcn-pw")
    r.add_admin("jis", "jis-admin-pw")
    r.propagate()
    return r


@pytest.fixture
def ws(realm):
    return realm.workstation()


@pytest.fixture
def kdbm_client(realm, ws):
    return KdbmClient(ws.client, realm.shards[0].master_host.address)


def jis():
    return Principal("jis", "", REALM)


def bcn():
    return Principal("bcn", "", REALM)


class TestKpasswd:
    def test_self_password_change(self, realm, kdbm_client):
        kdbm_client.change_password(jis(), "jis-pw", "new-pw")
        assert realm.shards[0].db.principal_key(jis()) == string_to_key("new-pw")

    def test_key_version_bumped(self, realm, kdbm_client):
        kdbm_client.change_password(jis(), "jis-pw", "new-pw")
        assert realm.shards[0].db.get_record(jis()).key_version == 2

    def test_wrong_old_password_fails(self, realm, kdbm_client):
        """The old password is required to fetch the KDBM ticket — a
        passerby at an unattended workstation cannot change it."""
        with pytest.raises(KerberosError) as err:
            kdbm_client.change_password(jis(), "not-the-password", "evil")
        assert err.value.code == ErrorCode.INTK_BADPW
        assert realm.shards[0].db.principal_key(jis()) == string_to_key("jis-pw")

    def test_cannot_change_someone_elses_password(self, realm, ws):
        """bcn authenticates fine but is not jis and not on the ACL."""
        from repro.kdbm.messages import AdminOperation, AdminRequestBody

        kc = KdbmClient(ws.client, realm.shards[0].master_host.address)
        cred = ws.client.as_exchange(bcn(), "bcn-pw", kdbm_principal(REALM))
        body = AdminRequestBody(
            operation=int(AdminOperation.CHANGE_PASSWORD),
            target=jis(),
            new_password="evil",
            max_life=0.0,
        )
        reply = kc._roundtrip(cred, bcn(), body)
        assert not reply.ok
        assert reply.code == int(ErrorCode.KDBM_DENIED)
        assert realm.shards[0].db.principal_key(jis()) == string_to_key("jis-pw")

    def test_new_password_not_on_wire(self, realm, kdbm_client):
        """Private messages carry the password (Section 2.1)."""
        captured = []
        realm.net.add_tap(lambda d: captured.append(d.payload))
        kdbm_client.change_password(jis(), "jis-pw", "super-secret-new")
        for payload in captured:
            assert b"super-secret-new" not in payload


class TestKadmin:
    def test_admin_adds_principal(self, realm, kdbm_client):
        kdbm_client.add_principal(
            Principal("jis", "admin", REALM),
            "jis-admin-pw",
            Principal("newuser", "", REALM),
            "initial-pw",
        )
        assert realm.shards[0].db.exists(Principal("newuser", "", REALM))

    def test_admin_changes_other_password(self, realm, kdbm_client):
        kdbm_client.admin_change_password(
            Principal("jis", "admin", REALM), "jis-admin-pw", bcn(), "reset-pw"
        )
        assert realm.shards[0].db.principal_key(bcn()) == string_to_key("reset-pw")

    def test_non_admin_cannot_add(self, realm, kdbm_client):
        with pytest.raises(KerberosError) as err:
            kdbm_client.add_principal(bcn(), "bcn-pw", Principal("x", "", REALM), "p")
        assert err.value.code == ErrorCode.KDBM_DENIED

    def test_null_instance_is_not_admin(self, realm, kdbm_client):
        """The ACL lists jis.admin, not jis: the plain instance has no
        administrative power (Section 5.1's convention)."""
        with pytest.raises(KerberosError) as err:
            kdbm_client.add_principal(jis(), "jis-pw", Principal("y", "", REALM), "p")
        assert err.value.code == ErrorCode.KDBM_DENIED

    def test_duplicate_add_reported(self, realm, kdbm_client):
        with pytest.raises(KerberosError) as err:
            kdbm_client.add_principal(
                Principal("jis", "admin", REALM), "jis-admin-pw", bcn(), "p"
            )
        assert err.value.code == ErrorCode.KDBM_ERROR

    def test_get_entry(self, realm, kdbm_client):
        text = kdbm_client.get_entry(jis(), "jis-pw")
        assert "kvno=1" in text

    def test_admin_instance_uses_separate_password(self, realm, kdbm_client):
        """"This convention allows an administrator to use a different
        password for Kerberos administration"."""
        with pytest.raises(KerberosError) as err:
            kdbm_client.add_principal(
                Principal("jis", "admin", REALM),
                "jis-pw",  # the log-in password, not the admin one
                Principal("z", "", REALM),
                "p",
            )
        assert err.value.code == ErrorCode.INTK_BADPW


class TestMasterOnly:
    def test_kdbm_refuses_readonly_database(self, realm):
        slave = realm.shards[0].slaves[0]
        with pytest.raises(ReadOnlyDatabase):
            KdbmServer(slave.db, realm.acl, port=9999).attach(slave.host)

    def test_admin_unavailable_when_master_down(self, realm, ws):
        """Figure 11's consequence: "administration requests cannot be
        serviced if the master machine is down"."""
        realm.net.set_down(realm.shards[0].master_host.name)
        kc = KdbmClient(ws.client, realm.shards[0].master_host.address)
        with pytest.raises(Unreachable):
            kc.change_password(jis(), "jis-pw", "new")

    def test_authentication_still_works_when_master_down(self, realm, ws):
        """...while authentication continues on the slaves (Figure 10)."""
        realm.net.set_down(realm.shards[0].master_host.name)
        assert ws.client.kinit("jis", "jis-pw") is not None


class TestAuditLog:
    def test_permitted_and_denied_both_logged(self, realm, ws, kdbm_client):
        kdbm_client.change_password(jis(), "jis-pw", "new-pw")
        try:
            kdbm_client.add_principal(bcn(), "bcn-pw", Principal("x", "", REALM), "p")
        except KerberosError:
            pass
        outcomes = [(e.operation, e.permitted) for e in realm.shards[0].kdbm.log]
        assert ("CHANGE_PASSWORD", True) in outcomes
        assert ("ADD_PRINCIPAL", False) in outcomes

    def test_log_records_requester_and_target(self, realm, kdbm_client):
        kdbm_client.change_password(jis(), "jis-pw", "new-pw")
        entry = realm.shards[0].kdbm.log[-1]
        assert entry.requester == f"jis@{REALM}"
        assert entry.target == f"jis@{REALM}"

    def test_unauthenticated_attempts_logged(self, realm, ws):
        ws.host.rpc(realm.shards[0].master_host.address, 751, b"garbage")
        assert any(not e.permitted for e in realm.shards[0].kdbm.log)


class TestTicketPath:
    def test_kdbm_ticket_never_from_tgs(self, realm, ws):
        """End-to-end restatement of Section 5.1: TGS refuses, AS serves."""
        ws.client.kinit("jis", "jis-pw")
        with pytest.raises(KerberosError) as err:
            ws.client.get_credential(kdbm_principal(REALM))
        assert err.value.code == ErrorCode.KDC_PR_NOTGT
        cred = ws.client.as_exchange(jis(), "jis-pw", kdbm_principal(REALM))
        assert cred.service.same_entity(kdbm_principal(REALM))
