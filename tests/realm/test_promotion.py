"""Master migration: promoting a slave after losing the master for good.

The paper makes the master a single point of failure for writes
(Figure 11); the operational answer — implied by "both the master and
slave Kerberos machines possess" the master key (Section 5.3) — is to
promote a slave.  These tests drill that procedure.
"""

import pytest

from repro.core import StaticLocator
from repro.kdbm import KdbmClient
from repro.netsim import Network, Unreachable
from repro.principal import Principal
from repro.realm import Realm, RealmTopology

REALM = "ATHENA.MIT.EDU"


@pytest.fixture
def realm():
    net = Network()
    r = Realm(net, REALM, topology=RealmTopology(slaves_per_shard=2))
    r.add_admin("jis", "admin-pw")
    r.add_user("jis", "jis-pw")
    r.propagate()
    return r


class TestPromotion:
    def test_promoted_slave_accepts_writes(self, realm):
        site = realm.shards[0]
        realm.net.set_down(site.master_host.name)   # master lost
        promoted = realm.promote_slave(0)
        site.db.add_principal(
            Principal("post-disaster", "", REALM), password="pw"
        )
        assert site.db.exists(Principal("post-disaster", "", REALM))
        assert site.master_host is promoted.host

    def test_kdbm_runs_on_new_master(self, realm):
        site = realm.shards[0]
        old_addresses = realm.kdc_addresses()
        realm.net.set_down(site.master_host.name)
        realm.promote_slave(0)

        ws = realm.workstation()
        # Point kpasswd at the NEW master.
        kdbm = KdbmClient(ws.client, site.master_host.address)
        # The client's KDC list must include a live KDC; the new master is.
        ws.client.set_locator(REALM, StaticLocator([site.master_host.address]))
        result = kdbm.change_password(
            Principal("jis", "", REALM), "jis-pw", "post-pw"
        )
        assert "password changed" in result

    def test_propagation_continues_to_remaining_slaves(self, realm):
        site = realm.shards[0]
        realm.net.set_down(site.master_host.name)
        realm.promote_slave(0)
        site.db.add_principal(Principal("fresh", "", REALM), password="pw")
        result = realm.propagate()
        assert result.all_ok
        assert result.attempted == 1     # the one remaining slave
        assert site.slaves[0].db.exists(Principal("fresh", "", REALM))

    def test_logins_uninterrupted_through_the_migration(self, realm):
        ws = realm.workstation()
        ws.client.kinit("jis", "jis-pw")             # before
        realm.net.set_down(realm.shards[0].master_host.name)
        ws.client.kdestroy()
        ws.client.kinit("jis", "jis-pw")             # during (via slave)
        realm.promote_slave(0)
        ws.client.kdestroy()
        ws.client.kinit("jis", "jis-pw")             # after
