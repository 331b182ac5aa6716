"""User program tests: kinit, klist, kdestroy, kpasswd, kadmin, login."""

import pytest

from repro.kdbm import KdbmClient
from repro.netsim import Network
from repro.principal import Principal
from repro.realm import Realm
from repro.user import (
    LoginError,
    LoginSession,
    kadmin_add_principal,
    kadmin_change_password,
    kdestroy,
    kinit,
    klist,
    kpasswd,
)

REALM = "ATHENA.MIT.EDU"


@pytest.fixture
def realm():
    net = Network()
    r = Realm(net, REALM)
    r.add_user("jis", "jis-pw")
    r.add_admin("jis", "jis-admin-pw")
    r.add_service("rlogin", "priam")
    return r


@pytest.fixture
def ws(realm):
    return realm.workstation()


@pytest.fixture
def kdbm(realm, ws):
    return KdbmClient(ws.client, realm.shards[0].master_host.address)


class TestTicketPrograms:
    def test_kinit_output(self, ws):
        out = kinit(ws.client, "jis", "jis-pw")
        assert f"jis@{REALM}" in out
        assert "expires" in out

    def test_klist_empty(self, ws):
        assert "no ticket file" in klist(ws.client)

    def test_klist_lists_tickets(self, realm, ws):
        kinit(ws.client, "jis", "jis-pw")
        ws.client.get_credential(Principal("rlogin", "priam", REALM))
        out = klist(ws.client)
        assert "krbtgt" in out
        assert "rlogin.priam" in out
        assert f"Principal: jis@{REALM}" in out

    def test_kdestroy_output(self, ws):
        kinit(ws.client, "jis", "jis-pw")
        assert "1 wiped" in kdestroy(ws.client)
        assert "no ticket file" in klist(ws.client)

    def test_kinit_after_expiry(self, realm, ws):
        """Section 6.1's mid-session re-kinit scenario."""
        kinit(ws.client, "jis", "jis-pw")
        realm.net.clock.advance(9 * 3600)
        from repro.core import KerberosError

        with pytest.raises(KerberosError):
            ws.client.get_credential(Principal("rlogin", "priam", REALM))
        kinit(ws.client, "jis", "jis-pw")
        ws.client.get_credential(Principal("rlogin", "priam", REALM))


class TestPasswordPrograms:
    def test_kpasswd(self, realm, ws, kdbm):
        out = kpasswd(kdbm, "jis", "jis-pw", "brand-new")
        assert "Password changed" in out
        kinit(ws.client, "jis", "brand-new")

    def test_kadmin_add(self, realm, ws, kdbm):
        out = kadmin_add_principal(
            kdbm, "jis", "jis-admin-pw", "newbie", "welcome1"
        )
        assert "added" in out
        kinit(ws.client, "newbie", "welcome1")

    def test_kadmin_cpw(self, realm, ws, kdbm):
        kadmin_change_password(kdbm, "jis", "jis-admin-pw", "jis", "reset!")
        kinit(ws.client, "jis", "reset!")


class TestLoginSession:
    def test_login_logout_cycle(self, realm, ws):
        session = LoginSession(ws.host, ws.client)
        session.login("jis", "jis-pw")
        assert session.logged_in
        assert session.username == "jis"
        wiped = session.logout()
        assert wiped == 1
        assert not session.logged_in

    def test_wrong_password(self, realm, ws):
        session = LoginSession(ws.host, ws.client)
        with pytest.raises(LoginError, match="Incorrect password"):
            session.login("jis", "nope")
        assert not session.logged_in

    def test_unknown_user(self, realm, ws):
        session = LoginSession(ws.host, ws.client)
        with pytest.raises(LoginError, match="No such user"):
            session.login("mallory", "x")

    def test_double_login_refused(self, realm, ws):
        session = LoginSession(ws.host, ws.client)
        session.login("jis", "jis-pw")
        with pytest.raises(LoginError, match="already logged in"):
            session.login("jis", "jis-pw")

    def test_logout_without_login(self, realm, ws):
        session = LoginSession(ws.host, ws.client)
        with pytest.raises(LoginError):
            session.logout()

    def test_logout_destroys_service_tickets_too(self, realm, ws):
        """Section 6.1: "Kerberos tickets are automatically destroyed
        when a user logs out" — all of them."""
        session = LoginSession(ws.host, ws.client)
        session.login("jis", "jis-pw")
        ws.client.get_credential(Principal("rlogin", "priam", REALM))
        assert session.logout() == 2
        assert ws.client.klist() == []

    def test_session_duration(self, realm, ws):
        session = LoginSession(ws.host, ws.client)
        session.login("jis", "jis-pw")
        realm.net.clock.advance(1234.0)
        assert session.session_duration() == pytest.approx(1234.0)

    def test_no_kdc_is_login_failure(self, realm, ws):
        realm.net.set_down(realm.shards[0].master_host.name)
        session = LoginSession(ws.host, ws.client)
        with pytest.raises(Exception):
            session.login("jis", "jis-pw")


class TestKsrvutil:
    def test_lists_names_and_versions(self, realm):
        from repro.principal import Principal
        from repro.user import ksrvutil_list

        service = Principal("rlogin", "priam", REALM)
        tab = realm.srvtab_for(service)
        realm.rotate_service_key(service, tab)
        out = ksrvutil_list(tab)
        assert "rlogin.priam" in out
        assert "  2  " in out
        # No key bytes in the listing.
        assert realm.service_key(service).key_bytes.hex() not in out

    def test_empty_srvtab(self):
        from repro.core import SrvTab
        from repro.user import ksrvutil_list

        assert "empty" in ksrvutil_list(SrvTab())
