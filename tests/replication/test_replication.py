"""Database propagation tests (paper Section 5.3, Figure 13) — exp F13."""

import pytest

from repro.core import Principal
from repro.crypto import string_to_key
from repro.netsim import Network
from repro.realm import Realm, RealmTopology
from repro.replication.messages import (
    PropKind,
    PropReply,
    PropTransfer,
    encode_prop_message,
)

REALM = "ATHENA.MIT.EDU"


@pytest.fixture
def net():
    return Network()


@pytest.fixture
def realm(net):
    r = Realm(net, REALM, topology=RealmTopology(slaves_per_shard=2))
    r.add_user("jis", "jis-pw")
    return r


class TestPropagation:
    def test_full_dump_reaches_all_slaves(self, realm):
        result = realm.propagate()
        assert result.all_ok
        assert result.attempted == 2
        for slave in realm.shards[0].slaves:
            assert slave.db.exists(Principal("jis", "", REALM))

    def test_entire_database_sent(self, realm):
        """"The database is sent, in its entirety" — slave contents equal
        master contents after one round."""
        realm.add_user("bcn", "b")
        realm.add_user("treese", "t")
        realm.propagate()
        master_items = list(realm.shards[0].db.store.items())
        for slave in realm.shards[0].slaves:
            assert list(slave.db.store.items()) == master_items

    def test_deletion_propagates(self, realm):
        realm.propagate()
        realm.shards[0].db.delete_principal(Principal("jis", "", REALM))
        realm.propagate()
        for slave in realm.shards[0].slaves:
            assert not slave.db.exists(Principal("jis", "", REALM))

    def test_password_change_propagates(self, realm):
        realm.propagate()
        realm.shards[0].db.change_key(Principal("jis", "", REALM), new_password="new")
        realm.propagate()
        for slave in realm.shards[0].slaves:
            assert slave.db.principal_key(
                Principal("jis", "", REALM)
            ) == string_to_key("new")

    def test_hourly_schedule(self, realm, net):
        realm.schedule_propagation()
        realm.add_user("late", "pw")
        slave = realm.shards[0].slaves[0]
        assert not slave.db.exists(Principal("late", "", REALM))
        net.runtime.run_for(3600.0)
        assert slave.db.exists(Principal("late", "", REALM))
        assert slave.kpropd.updates_applied >= 1

    def test_staleness_window(self, realm, net):
        """A slave is at most one interval stale — the consistency window
        the paper accepts."""
        realm.schedule_propagation()
        net.runtime.run_for(3 * 3600.0 + 10)
        slave = realm.shards[0].slaves[0]
        assert slave.kpropd.staleness(net.clock.now()) <= 3600.0 + 10

    def test_staleness_infinite_before_first_update(self, net):
        fresh = Realm(net, "FRESH.REALM")
        slave = fresh.add_slave("fresh-slave")
        assert slave.kpropd.staleness(net.clock.now()) == float("inf")


class TestTamperRejection:
    def test_tampered_dump_rejected(self, realm, net):
        """The Figure 13 checksum check: flip one byte in transit and the
        slave must keep its old database."""
        realm.propagate()
        realm.add_user("victim", "pw")

        def flip(datagram):
            if datagram.dst_port == 754 and len(datagram.payload) > 100:
                payload = bytearray(datagram.payload)
                payload[-10] ^= 0x01
                return type(datagram)(
                    src=datagram.src,
                    src_port=datagram.src_port,
                    dst=datagram.dst,
                    dst_port=datagram.dst_port,
                    payload=bytes(payload),
                )
            return datagram

        net.add_interceptor(flip)
        result = realm.propagate()
        net.remove_interceptor(flip)

        assert not result.all_ok
        for slave in realm.shards[0].slaves:
            assert slave.kpropd.updates_rejected >= 1
            assert not slave.db.exists(Principal("victim", "", REALM))

    def test_imposter_master_rejected(self, realm, net):
        """Without the master key the checksum cannot be forged: "it is
        essential that only information from the master host be accepted
        by the slaves"."""
        from repro.crypto import KeyGenerator, cbc_mac

        imposter = net.add_host("imposter")
        fake_dump = realm.shards[0].db.dump()  # even a byte-perfect dump...
        wrong_key = KeyGenerator(seed=b"imposter").session_key()
        transfer = PropTransfer(
            checksum=cbc_mac(wrong_key, fake_dump),  # ...with a forged MAC
            dump=fake_dump,
        )
        slave = realm.shards[0].slaves[0]
        raw = imposter.rpc(
            slave.host.address, 754, encode_prop_message(PropKind.FULL, transfer)
        )
        reply = PropReply.from_bytes(raw)
        assert not reply.ok
        assert "checksum" in reply.text

    def test_garbage_transfer_rejected(self, realm):
        slave = realm.shards[0].slaves[0]
        raw = realm.shards[0].master_host.rpc(slave.host.address, 754, b"not a transfer")
        assert not PropReply.from_bytes(raw).ok
        assert slave.kpropd.rejection_log

    def test_dump_useless_to_eavesdropper(self, realm, net):
        """"the information passed from master to slave over the network
        is not useful to an eavesdropper" — no cleartext keys inside."""
        captured = []
        net.add_tap(lambda d: captured.append(d.payload))
        realm.propagate(full=True)
        jis_key = string_to_key("jis-pw").key_bytes
        assert any(len(p) > 200 for p in captured)  # the dump did travel
        for payload in captured:
            assert jis_key not in payload


class TestFailureHandling:
    def test_dead_slave_does_not_block_others(self, realm, net):
        net.set_down(realm.shards[0].slaves[0].host.name)
        realm.add_user("while-down", "pw")
        result = realm.propagate()
        assert result.succeeded == 1
        assert len(result.failures) == 1
        assert realm.shards[0].slaves[1].db.exists(Principal("while-down", "", REALM))

    def test_recovered_slave_catches_up(self, realm, net):
        site = realm.shards[0]
        net.set_down(site.slaves[0].host.name)
        realm.add_user("while-down", "pw")
        realm.propagate()
        net.set_up(site.slaves[0].host.name)
        realm.propagate()
        assert site.slaves[0].db.exists(Principal("while-down", "", REALM))

    def test_history_recorded(self, realm, net):
        realm.propagate()
        realm.propagate()
        # Bootstrap with slaves ran one initial round already.
        assert net.metrics.total("kprop.rounds_total") == 3


class TestConstruction:
    def test_kprop_requires_master(self, realm):
        from repro.replication import Kprop

        slave = realm.shards[0].slaves[0]
        with pytest.raises(ValueError):
            Kprop(slave.db, slave.host, [])

    def test_kpropd_requires_replica(self, realm, net):
        from repro.replication import Kpropd

        host = net.add_host("wrong")
        with pytest.raises(ValueError):
            Kpropd(realm.shards[0].db).attach(host)
