"""The consistency window of hourly full-dump replication (Section 5.3).

*"Keeping multiple copies of the database introduces the problem of data
consistency.  We have found that very simple methods suffice for dealing
with inconsistency."*  These tests pin down exactly what "simple" costs:
between a change on the master and the next hourly dump, slaves serve
the old data — observable as old passwords still working (and new ones
not) on slaves.
"""

import pytest

from repro.core import ErrorCode, KerberosClient, KerberosError, StaticLocator
from repro.netsim import Network
from repro.principal import Principal
from repro.realm import Realm, RealmTopology

REALM = "ATHENA.MIT.EDU"


@pytest.fixture
def world():
    net = Network()
    realm = Realm(net, REALM, topology=RealmTopology(slaves_per_shard=1))
    realm.add_user("jis", "old-pw")
    realm.propagate()
    realm.schedule_propagation()
    return net, realm


def client_pinned_to(host_address, ws):
    return KerberosClient(ws.host, REALM, StaticLocator([host_address]))


class TestConsistencyWindow:
    def test_old_password_lives_on_at_the_slave(self, world):
        """Inside the window: master says new, slave says old."""
        net, realm = world
        realm.db.change_key(Principal("jis", "", REALM), new_password="new-pw")

        ws = realm.workstation()
        at_master = client_pinned_to(realm.master_host.address, ws)
        at_slave = client_pinned_to(realm.slaves[0].host.address, ws)

        # Master: only the new password works.
        assert at_master.kinit("jis", "new-pw") is not None
        with pytest.raises(KerberosError):
            at_master.kinit("jis", "old-pw")
        # Slave: only the OLD one does — the window, made visible.
        assert at_slave.kinit("jis", "old-pw") is not None
        with pytest.raises(KerberosError):
            at_slave.kinit("jis", "new-pw")

    def test_window_closes_at_the_next_dump(self, world):
        net, realm = world
        realm.db.change_key(Principal("jis", "", REALM), new_password="new-pw")
        net.clock.advance(3600.0)

        ws = realm.workstation()
        at_slave = client_pinned_to(realm.slaves[0].host.address, ws)
        assert at_slave.kinit("jis", "new-pw") is not None
        with pytest.raises(KerberosError):
            at_slave.kinit("jis", "old-pw")

    def test_new_user_invisible_at_slave_until_dump(self, world):
        net, realm = world
        realm.add_user("fresh", "pw")
        ws = realm.workstation()
        at_slave = client_pinned_to(realm.slaves[0].host.address, ws)
        with pytest.raises(KerberosError) as err:
            at_slave.kinit("fresh", "pw")
        assert err.value.code == ErrorCode.KDC_PR_UNKNOWN
        net.clock.advance(3600.0)
        assert at_slave.kinit("fresh", "pw") is not None

    def test_deleted_user_lingers_at_slave_until_dump(self, world):
        """The window also delays lockout — a deleted account can still
        authenticate via a stale slave for up to an hour.  (Together with
        ticket lifetimes, this bounds how fast removal takes effect.)"""
        net, realm = world
        realm.db.delete_principal(Principal("jis", "", REALM))
        ws = realm.workstation()
        at_slave = client_pinned_to(realm.slaves[0].host.address, ws)
        assert at_slave.kinit("jis", "old-pw") is not None  # still in!
        net.clock.advance(3600.0)
        with pytest.raises(KerberosError):
            at_slave.kinit("jis", "old-pw")

    def test_failover_client_sees_master_first(self, world):
        """The default client (master first in its list) never observes
        the window while the master is up — only slave-pinned or
        failed-over clients do."""
        net, realm = world
        realm.db.change_key(Principal("jis", "", REALM), new_password="new-pw")
        ws = realm.workstation()
        assert ws.client.kinit("jis", "new-pw") is not None
