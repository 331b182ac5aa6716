"""Realm bootstrap tests: the Section 6.3 administrator checklist."""

import pytest

from repro.core import (
    Principal,
    StaticLocator,
    kdbm_principal,
    krb_rd_req,
    tgs_principal,
)
from repro.netsim import Network
from repro.realm import Realm, RealmTopology, link


@pytest.fixture
def net():
    return Network()


class TestBootstrap:
    def test_essential_principals_registered(self, net):
        realm = Realm(net, "ATHENA.MIT.EDU")
        assert realm.db.exists(tgs_principal("ATHENA.MIT.EDU"))
        assert realm.db.exists(kdbm_principal("ATHENA.MIT.EDU"))

    def test_servers_listening(self, net):
        realm = Realm(net, "ATHENA.MIT.EDU")
        assert realm.master_host.handler_for(750) is not None  # AS/TGS
        assert realm.master_host.handler_for(751) is not None  # KDBM

    def test_slaves_initialized_with_dump(self, net):
        realm = Realm(net, "ATHENA.MIT.EDU", topology=RealmTopology(slaves_per_shard=3))
        for slave in realm.slaves:
            assert slave.db.exists(tgs_principal("ATHENA.MIT.EDU"))
            assert slave.db.readonly

    def test_kdc_addresses_master_first(self, net):
        realm = Realm(net, "ATHENA.MIT.EDU", topology=RealmTopology(slaves_per_shard=2))
        addrs = realm.kdc_addresses()
        assert addrs[0] == realm.master_host.address
        assert len(addrs) == 3

    def test_workstation_naming(self, net):
        realm = Realm(net, "ATHENA.MIT.EDU")
        ws1 = realm.workstation()
        ws2 = realm.workstation()
        assert ws1.host.name != ws2.host.name

    def test_workstation_clock_skew(self, net):
        realm = Realm(net, "ATHENA.MIT.EDU")
        ws = realm.workstation(clock_skew=120.0)
        assert ws.host.clock.now() == net.clock.now() + 120.0

    def test_two_realms_coexist(self, net):
        a = Realm(net, "ATHENA.MIT.EDU")
        b = Realm(net, "LCS.MIT.EDU")
        assert a.master_host.address != b.master_host.address


class TestEndToEnd:
    def test_login_and_service(self, net):
        realm = Realm(net, "ATHENA.MIT.EDU", topology=RealmTopology(slaves_per_shard=1))
        realm.add_user("jis", "pw")
        service, key = realm.add_service("rlogin", "priam")
        ws = realm.workstation()
        ws.client.kinit("jis", "pw")
        request, _, _ = ws.client.mk_req(service)
        ctx = krb_rd_req(
            request, service, key, ws.host.address, net.clock.now()
        )
        assert ctx.client.name == "jis"

    def test_srvtab_roundtrip(self, net):
        realm = Realm(net, "ATHENA.MIT.EDU")
        service, key = realm.add_service("pop", "mailhost")
        tab = realm.srvtab_for(service)
        assert tab.key_for(service) == key
        assert realm.service_key(service) == key

    def test_cross_realm_link(self, net):
        athena = Realm(
            net, "ATHENA.MIT.EDU", topology=RealmTopology(slaves_per_shard=1)
        )
        lcs = Realm(net, "LCS.MIT.EDU", seed=b"lcs")
        athena.add_user("jis", "pw")
        service, key = lcs.add_service("rlogin", "ptt")
        link(athena, lcs)

        ws = athena.workstation()
        ws.client.set_locator(
            "LCS.MIT.EDU", StaticLocator([lcs.master_host.address])
        )
        ws.client.kinit("jis", "pw")
        cred = ws.client.get_credential(service)
        assert cred is not None

    def test_link_propagates_to_slaves(self, net):
        """Slaves can serve cross-realm requests after the link is
        propagated (inter-realm keys are ordinary database records)."""
        athena = Realm(
            net, "ATHENA.MIT.EDU", topology=RealmTopology(slaves_per_shard=1)
        )
        lcs = Realm(net, "LCS.MIT.EDU", seed=b"lcs")
        athena.add_user("jis", "pw")
        service, _ = lcs.add_service("rlogin", "ptt")
        link(athena, lcs)

        net.set_down(athena.master_host.name)  # only the slave remains
        ws = athena.workstation()
        ws.client.set_locator(
            "LCS.MIT.EDU", StaticLocator([lcs.master_host.address])
        )
        ws.client.kinit("jis", "pw")
        assert ws.client.get_credential(service) is not None
