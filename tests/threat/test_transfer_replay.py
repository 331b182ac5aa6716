"""A database never moves backwards (paper Section 5.3, Figure 13).

*"It is essential that only information from the master host be accepted
by the slaves, and that tampering of data be detected."*  The master-key
checksum answers both — and keeps answering them for a transfer recorded
last week: a captured dump is still the master's, still untampered.  The
attacker here is the Section 2 replayer aimed at the database channel:
record a transfer off the wire, wait for the victim to change a
compromised password, and send the recording again, so that the copy
which takes it serves the superseded key.

One drill, three transfer kinds — everything that lets a transfer into a
database goes through :class:`repro.replication.TransferReceiver`, so a
full dump to a slave, a delta to a slave and a range-move chunk to a
shard master must give the same answers: the recording is refused,
audited ``replay_detected`` on the receiving host, the database it was
aimed at keeps the current key, and the next legitimate round still
lands.  Then the edges of the rule for the Figure 13 dump: a resent
identical dump is no replay, a promoted master's dump is ahead of
everything the old one sent, and the position that refuses is the
database's durable one, not kpropd's memory — on a fresh or demoted
replica, the position it was provisioned at.
"""

from dataclasses import dataclass
from typing import Callable

import pytest

from repro.core import ErrorCode, KerberosError, Principal
from repro.core.locator import StaticLocator
from repro.netsim import Network
from repro.netsim.clock import HOUR
from repro.netsim.ports import KPROP_PORT, SHARD_PORT
from repro.realm import Realm, RealmTopology
from repro.realm.sharding import hash_point, move_range
from repro.replication import DeltaReply, DeltaStatus, PropKind, PropReply
from repro.threat import Replayer

REALM = "ATHENA.MIT.EDU"
JIS = Principal("jis", "", REALM)


@dataclass
class Drill:
    """One receiving database in its world, and how a transfer reaches it."""

    realm: Realm
    port: int
    #: Which kind of transfer on ``port`` to record.
    kind: PropKind
    #: ``transfer()`` — make the legitimate transfer that gets recorded
    #: (it carries the victim's key as of now) and return the host whose
    #: database it went into; that host's KDC is where the passwords are
    #: tried afterwards.
    transfer: Callable
    #: Did the receiver refuse, judging by the reply bytes?
    refused: Callable


def _change_password(realm, password):
    realm.db_for_key(JIS.db_key()).change_key(
        JIS, new_password=password, now=realm.net.clock.now()
    )


def full_dump(net):
    realm = Realm(net, REALM, topology=RealmTopology(slaves_per_shard=1))

    def transfer():
        assert realm.propagate(full=True).all_ok
        return realm.shards[0].slaves[0].host

    return Drill(
        realm=realm, port=KPROP_PORT, kind=PropKind.FULL, transfer=transfer,
        refused=lambda raw: not PropReply.from_bytes(raw).ok,
    )


def delta(net):
    realm = Realm(net, REALM, topology=RealmTopology(slaves_per_shard=1))

    def transfer():
        _change_password(realm, "jis-pw")  # same password, new journal entry
        assert realm.propagate().deltas == 1
        return realm.shards[0].slaves[0].host

    return Drill(
        realm=realm, port=KPROP_PORT, kind=PropKind.DELTA, transfer=transfer,
        refused=lambda raw: DeltaReply.from_bytes(raw).status != DeltaStatus.OK,
    )


def range_chunk(net):
    realm = Realm(
        net, REALM, topology=RealmTopology(shards=2, slaves_per_shard=1)
    )

    def transfer():
        source = realm.shard_for_key(JIS.db_key())
        point = hash_point(JIS.db_key())
        assert move_range(realm, point, point + 1, 1 - source).moved == 1
        return realm.shards[1 - source].master_host

    return Drill(
        realm=realm, port=SHARD_PORT, kind=PropKind.DELTA, transfer=transfer,
        refused=lambda raw: DeltaReply.from_bytes(raw).status != DeltaStatus.OK,
    )


@pytest.fixture(params=[full_dump, delta, range_chunk],
                ids=lambda build: build.__name__)
def world(request):
    net = Network()
    drill = request.param(net)
    drill.realm.add_user("jis", "jis-pw")
    drill.realm.propagate()
    return net, drill


def _tape(net, port, kind):
    return Replayer(net, match=lambda d: (
        d.dst_port == port and d.payload[0] == kind
    ))


def _login_at(realm, address, password):
    ws = realm.workstation()
    ws.client.set_locator(REALM, StaticLocator([address]))
    ws.client.kinit("jis", password)


def test_recorded_transfer_cannot_roll_a_database_back(world):
    net, drill = world
    realm = drill.realm
    tape = _tape(net, drill.port, drill.kind)
    target = drill.transfer()
    assert len(tape.captured) == 1
    tape.detach()

    # The password is compromised and changed; the change propagates.
    _change_password(realm, "jis-new-pw")
    assert realm.propagate().all_ok
    net.runtime.run_for(3 * HOUR)

    assert drill.refused(tape.replay())
    (caught,) = net.audit.events("replay_detected")
    assert caught.host == target.name
    assert caught.trace_id == ""  # a forged datagram carries no context
    assert net.audit.count("tampered_propagation") == 0

    # The database the recording was aimed at still serves the current
    # key, and only that one.
    with pytest.raises(KerberosError) as err:
        _login_at(realm, target.address, "jis-pw")
    assert err.value.code == ErrorCode.INTK_BADPW
    _login_at(realm, target.address, "jis-new-pw")

    # The channel is not wedged: the next legitimate round lands.
    realm.add_user("bcn", "bcn-pw")
    assert realm.propagate().all_ok
    assert net.audit.count("replay_detected") == 1


# -- the edges of the rule, on the Figure 13 dump -----------------------------


def _slaved_realm(slaves):
    net = Network()
    realm = Realm(net, REALM, topology=RealmTopology(slaves_per_shard=slaves))
    realm.add_user("jis", "jis-pw")
    return net, realm


def test_identical_dump_resent_is_accepted():
    """kprop's reply was lost and it retransmits: the same dump, at the
    position the slave already holds.  Equal is not behind."""
    net, realm = _slaved_realm(1)
    site = realm.shards[0]
    tape = _tape(net, KPROP_PORT, PropKind.FULL)
    realm.propagate(full=True)
    applied = site.slaves[0].kpropd.updates_applied
    reply = PropReply.from_bytes(tape.replay())
    assert reply.ok and reply.records == len(site.db.store)
    assert site.slaves[0].kpropd.updates_applied == applied + 1
    assert net.audit.count("replay_detected") == 0


def test_promoted_masters_dump_is_ahead_and_the_old_masters_behind():
    """A promotion starts a new epoch generation with sequence numbers
    from zero: the survivors must take the new master's dump although
    its seq is lower — and never again one of the lost master's."""
    net, realm = _slaved_realm(2)
    survivor = realm.shards[0].slaves[1]
    tape = Replayer(net, match=lambda d: (
        d.dst == survivor.host.address and d.dst_port == KPROP_PORT
        and d.payload[0] == PropKind.FULL
    ))
    realm.propagate(full=True)
    old = (survivor.db.loaded_epoch, survivor.db.loaded_seq)
    tape.detach()

    net.set_down(realm.shards[0].master_host.name)
    realm.promote_slave(0)
    _change_password(realm, "jis-new-pw")
    result = realm.propagate()
    assert result.all_ok and result.modes[str(survivor.host.address)] == "full"
    new = (survivor.db.loaded_epoch, survivor.db.loaded_seq)
    assert new > old and new[1] < old[1]

    assert not PropReply.from_bytes(tape.replay()).ok
    assert net.audit.events("replay_detected")[-1].host == survivor.host.name
    _login_at(realm, survivor.host.address, "jis-new-pw")


def test_crashed_slave_refuses_from_its_durable_position():
    """kpropd's own applied position is memory and a crash empties it;
    the database's ``(loaded_epoch, loaded_seq)`` is on disk, and it is
    the one the rule reads."""
    net, realm = _slaved_realm(1)
    site = realm.shards[0]
    slave = site.slaves[0]
    tape = _tape(net, KPROP_PORT, PropKind.FULL)
    realm.propagate(full=True)
    tape.detach()
    _change_password(realm, "jis-new-pw")
    assert realm.propagate().all_ok

    net.crash_host(slave.host.name, downtime=30.0)
    net.runtime.run_for(31.0)
    assert slave.kpropd.applied_epoch is None
    assert slave.kpropd.held() == (site.db.journal.epoch, site.db.journal.last_seq)

    assert not PropReply.from_bytes(tape.replay()).ok
    assert net.audit.count("replay_detected") == 1
    _login_at(realm, slave.host.address, "jis-new-pw")
    # The restart costs one full dump, as before — at the slave's own
    # position, so accepted.
    result = realm.propagate()
    assert result.all_ok and result.fulls == 1


def _refused_then_caught_up(net, realm, tape, host):
    """Aim the recorded dump at ``host``: refused, and the next round
    still lands."""
    stale = tape.captured[0]
    reply = net.inject(type(stale)(
        src=stale.src, src_port=stale.src_port, dst=host.address,
        dst_port=stale.dst_port, payload=stale.payload,
    ))
    assert not PropReply.from_bytes(reply).ok
    (caught,) = net.audit.events("replay_detected")
    assert caught.host == host.name
    assert realm.propagate().all_ok
    with pytest.raises(KerberosError):
        _login_at(realm, host.address, "jis-pw")
    _login_at(realm, host.address, "jis-new-pw")


def test_fresh_replica_refuses_a_dump_older_than_its_provisioning():
    """A copy that has loaded nothing yet holds the position it was
    provisioned at, so a validly MAC'd dump recorded before that is
    behind it from the first moment."""
    net, realm = _slaved_realm(1)
    tape = _tape(net, KPROP_PORT, PropKind.FULL)
    realm.propagate(full=True)
    tape.detach()
    _change_password(realm, "jis-new-pw")
    late = realm.add_slave("late-slave")
    journal = realm.shards[0].db.journal
    assert late.kpropd.held() == (journal.epoch, journal.last_seq)
    _refused_then_caught_up(net, realm, tape, late.host)


def test_demoted_master_refuses_a_dump_from_before_the_promotion():
    """The old master comes back as an empty replica of the promoted
    one, provisioned at the new epoch: every dump the old master sent
    is behind it."""
    net, realm = _slaved_realm(1)
    tape = _tape(net, KPROP_PORT, PropKind.FULL)
    realm.propagate(full=True)
    tape.detach()
    old_master = realm.shards[0].master_host
    net.crash_host(old_master.name, downtime=30.0)
    realm.promote_slave(0, demote_old=True)
    _change_password(realm, "jis-new-pw")
    net.runtime.run_for(31.0)
    assert old_master.up
    _refused_then_caught_up(net, realm, tape, old_master)
