"""Sharded-realm tests: the consistent-hash ring, referral repair,
per-shard failover and promotion, and live range rebalancing.

The contract under test is the one the module docstring states: the
ring is a pure shared function of ``(realm, n_shards)``, stale clients
are repaired by typed :class:`WrongShard` referrals rather than errors,
every shard fails over within its own replica group, and a
:func:`move_range` never turns a concurrent login into a failure.
"""

import hashlib

import pytest

from repro.apps.hesiod import HesiodServer
from repro.core import (
    ErrorCode, ErrorReply, KerberosClient, MessageType, WrongShard,
)
from repro.core.errors import referral_text
from repro.core.messages import decode_message, encode_message
from repro.core.retry import RetryExhausted, RetryPolicy
from repro.netsim import Loss, Match, Network
from repro.netsim.ports import SHARD_PORT
from repro.realm import Realm, RealmTopology
from repro.realm.sharding import (
    RING_SPACE,
    HashRing,
    HesiodRingSource,
    ShardedLocator,
    hash_point,
    move_range,
)
from repro.replication import PropagationResult

pytestmark = pytest.mark.shard

REALM = "ATHENA.MIT.EDU"


def sharded_realm(net, shards=2, slaves=0):
    return Realm(
        net, REALM, seed=b"shard-test",
        topology=RealmTopology(shards=shards, slaves_per_shard=slaves),
    )


def user_on_shard(realm, shard, prefix="u"):
    """A (username, password) pair whose db-key the ring assigns to
    ``shard`` — found by scanning candidate names, like a test operator
    picking a principal from the right partition."""
    for i in range(512):
        username = f"{prefix}{i:03d}"
        key = username
        if realm.shard_for_key(key) == shard:
            realm.add_user(username, f"{username}-pw")
            return username, f"{username}-pw"
    raise AssertionError(f"no candidate name hashed to shard {shard}")


class TestHashRing:
    def test_same_seed_same_ring(self):
        """Ring determinism: every party that derives the ring from the
        realm name gets byte-for-byte the same partition function."""
        a = HashRing.seeded(REALM, 4)
        b = HashRing.seeded(REALM, 4)
        assert a == b
        assert a.segments() == b.segments()
        assert a.epoch == b.epoch == 1
        # And the partition is stable point-by-point.
        for i in range(200):
            key = f"user{i}@{REALM}"
            assert a.shard_for(key) == b.shard_for(key)

    def test_different_realms_differ(self):
        a = HashRing.seeded(REALM, 4)
        b = HashRing.seeded("LCS.MIT.EDU", 4)
        assert a.segments() != b.segments()

    def test_every_shard_owns_something(self):
        ring = HashRing.seeded(REALM, 4)
        assert ring.shards() == [0, 1, 2, 3]
        for shard in range(4):
            assert ring.arcs_of(shard)

    def test_record_round_trip(self):
        ring = HashRing.seeded(REALM, 3)
        assert HashRing.from_record(ring.to_record(REALM)) == ring

    def test_move_range_flips_epoch_and_preserves_boundary(self):
        ring = HashRing.seeded(REALM, 2)
        before = ring.copy()
        lo, hi = 100, 200
        owner_past_hi = ring.shard_for_point(hi)
        ring.move_range(lo, hi, 1)
        assert ring.epoch == before.epoch + 1
        assert ring.shard_for_point(lo) == 1
        assert ring.shard_for_point(hi - 1) == 1
        # The point just past the moved range keeps its old owner.
        assert ring.shard_for_point(hi) == owner_past_hi
        # Everything outside [lo, hi) is untouched.
        for point in (0, hi + 1, RING_SPACE - 1):
            if not lo <= point < hi:
                assert ring.shard_for_point(point) == (
                    before.shard_for_point(point)
                )

    def test_hash_point_is_sha256_derived(self):
        key = "jis"
        expected = int.from_bytes(
            hashlib.sha256(key.encode()).digest()[:4], "big"
        )
        assert hash_point(key) == expected
        assert 0 <= hash_point(key) < RING_SPACE


class TestShardedRealmBootstrap:
    def test_each_shard_owns_its_principals(self):
        net = Network()
        realm = sharded_realm(net, shards=2)
        u0 = user_on_shard(realm, 0)
        u1 = user_on_shard(realm, 1, prefix="v")
        key0 = u0[0]
        key1 = u1[0]
        assert realm.shards[0].db.store.get(key0) is not None
        assert key0 not in realm.shards[1].db.store
        assert realm.shards[1].db.store.get(key1) is not None
        assert key1 not in realm.shards[0].db.store

    def test_globals_replicated_to_every_shard(self):
        """krbtgt, kdbm, and service keys are realm-wide: any shard can
        seal a TGT or a service ticket, whichever shard owns the user."""
        net = Network()
        realm = sharded_realm(net, shards=2)
        service, _key = realm.add_service("rlogin", "priam")
        for site in realm.shards:
            assert site.db.exists(service)

    def test_login_works_on_both_shards(self):
        net = Network()
        realm = sharded_realm(net, shards=2)
        service, key = realm.add_service("rlogin", "priam")
        for shard in (0, 1):
            username, password = user_on_shard(
                realm, shard, prefix=f"s{shard}x"
            )
            ws = realm.workstation()
            ws.client.kinit(username, password)
            cred = ws.client.get_credential(service)
            assert cred is not None

    @pytest.mark.parametrize("shards, slaves", [(2, 0), (1, 1), (2, 1)])
    def test_propagate_reads_as_one_round(self, shards, slaves):
        """Every shard with slaves runs a round; the realm answers one
        result: attempts summed, a mode for each slave of every shard."""
        realm = sharded_realm(Network(), shards=shards, slaves=slaves)
        realm.add_user("jis", "jis-pw")
        result = realm.propagate()
        assert isinstance(result, PropagationResult)
        assert result.attempted == shards * slaves and result.all_ok
        assert set(result.modes) == {
            str(slave.host.address) for site in realm.shards for slave in site.slaves
        }


class TestReferrals:
    def test_stale_client_follows_referral(self):
        """A ring change strands every cached snapshot; the client's
        next request bounces off the old owner with a typed referral,
        is re-sent to the authoritative shard, and succeeds — counted
        on both sides."""
        net = Network()
        realm = sharded_realm(net, shards=2)
        username, password = user_on_shard(realm, 0)
        ws = realm.workstation()
        ws.client.kinit(username, password)   # locator snapshots epoch 1
        point = hash_point(username)
        result = move_range(realm, point, point + 1, 1)
        assert result.moved >= 1

        ws.client.kdestroy()
        ws.client.kinit(username, password)   # stale → referral → retry
        follows = net.metrics.total("kdc.referral_follows_total", realm=REALM)
        assert follows >= 1.0
        referrals = sum(
            net.metrics.total("kdc.referrals_total", server=site.master_host.name)
            for site in realm.shards
        )
        assert referrals >= 1.0
        # Following the referral also repaired the snapshot.
        assert ws.client.locator_for(REALM).ring_epoch == realm.ring.epoch

    def test_hesiod_discovered_client_survives_a_move(self):
        """The documented discovery path of a realm: a
        workstation that knows only the Hesiod server's address builds
        its ring and per-shard KDC lists from the ``_kerberos-ring`` and
        ``_kerberos-shard.N`` records, and after a move the referral
        drops its view, so its next lookup reads the republished
        ring."""
        net = Network()
        realm = sharded_realm(net, shards=2)
        hesiod = HesiodServer().attach(net.add_host("hesiod-server"))
        realm.attach_hesiod(hesiod)
        username, password = user_on_shard(realm, 0)
        host = net.add_host("public-ws")
        locator = ShardedLocator(
            HesiodRingSource(host, hesiod.host.address, REALM)
        )
        client = KerberosClient(host, REALM, locator=locator)
        client.kinit(username, password)
        assert hesiod.queries == 3  # the ring, then one list per shard
        assert locator.locate(username) == realm.shard_addresses(0)

        point = hash_point(username)
        move_range(realm, point, point + 1, 1)
        client.kdestroy()
        client.kinit(username, password)  # stale → referral → dropped view
        # The referral itself named the owner, so the login asked
        # nothing of Hesiod; the next locate fetches the new ring.
        assert hesiod.queries == 3
        assert locator.locate(username) == realm.shard_addresses(1)
        assert hesiod.queries == 6
        assert locator.ring_epoch == realm.ring.epoch

    def test_unknown_principal_is_not_a_referral(self):
        """Only principals the ring assigns elsewhere get referrals; a
        name nobody owns still fails with principal-unknown."""
        net = Network()
        realm = sharded_realm(net, shards=2)
        ws = realm.workstation()
        for i in range(64):
            name = f"ghost{i}"
            if realm.shard_for_key(name) == realm.ring.shard_for(name):
                with pytest.raises(Exception) as err:
                    ws.client.kinit(name, "nope")
                assert not isinstance(err.value, WrongShard)
                break


class TestShardFailover:
    def test_locator_orders_shard_master_first(self):
        net = Network()
        realm = sharded_realm(net, shards=2, slaves=1)
        for shard in (0, 1):
            username, _ = user_on_shard(realm, shard, prefix=f"f{shard}x")
            addresses = realm.locator().locate(username)
            assert addresses == realm.shard_addresses(shard)
            assert addresses[0] == realm.shards[shard].master_host.address

    def test_failover_stays_within_the_shard(self):
        """The owning shard's master dies: the login rides the same
        shard's slave.  The other shard cannot answer (it does not hold
        the principal), so success proves the replica list was the
        failed shard's own."""
        net = Network()
        realm = sharded_realm(net, shards=2, slaves=1)
        username, password = user_on_shard(realm, 1)
        realm.propagate()
        net.crash_host(realm.shards[1].master_host.name, downtime=3600.0)
        ws = realm.workstation()
        ws.client.kinit(username, password)
        assert ws.client.cache.tgt(REALM) is not None

    def test_promotion_is_shard_scoped(self):
        """Promoting inside shard 1 must not disturb shard 0's master,
        and only shard 1's replica list (what referrals and locators
        read) changes."""
        net = Network()
        realm = sharded_realm(net, shards=2, slaves=1)
        shard0_master = realm.shards[0].master_host
        old_master = realm.shards[1].master_host
        promoted = realm.shards[1].slaves[0].host
        realm.propagate()
        realm.promote_slave(0, shard=1)
        assert realm.shards[0].master_host is shard0_master
        assert realm.shards[1].master_host is promoted
        assert realm.shard_addresses(1)[0] == promoted.address
        assert realm.shard_addresses(0)[0] == shard0_master.address
        # A fresh client routes shard-1 principals to the new master
        # and can still authenticate there.
        username, password = user_on_shard(realm, 1, prefix="p")
        realm.propagate()
        ws = realm.workstation()
        assert ws.client.kdcs(REALM) is not None
        ws.client.kinit(username, password)
        assert old_master is not promoted


class TestMoveRange:
    def test_move_range_relocates_and_deletes(self):
        net = Network()
        realm = sharded_realm(net, shards=2)
        username, password = user_on_shard(realm, 0)
        key = username
        point = hash_point(key)
        epoch_before = realm.ring.epoch
        result = move_range(realm, point, point + 1, 1)
        assert result.moved >= 1
        assert result.deleted == result.moved
        assert result.sources == [0]
        assert result.epoch == epoch_before + 1
        assert key in realm.shards[1].db.store
        assert key not in realm.shards[0].db.store
        # Metrics: entries counted, epoch gauge current.
        assert net.metrics.total("shard.rebalance_entries_total", realm=REALM) >= 1.0
        assert net.metrics.total("shard.ring_epoch", realm=REALM) == float(realm.ring.epoch)
        # And the moved user can still log in.
        ws = realm.workstation()
        ws.client.kinit(username, password)

    def test_move_range_with_interleaved_logins(self):
        """Logins scheduled across the move window all succeed: early
        arrivals hit the source (still authoritative), late arrivals
        are referral-corrected to the target — never refused."""
        net = Network(latency=0.01)
        realm = sharded_realm(net, shards=2)
        users = [
            user_on_shard(realm, 0, prefix=f"m{i}x") for i in range(4)
        ]
        stations = [realm.workstation() for _ in users]
        for ws, (username, password) in zip(stations, users):
            ws.client.kinit(username, password)  # warm, epoch-1 snapshot
            ws.client.kdestroy()
        outcomes = []

        def login(ws, username, password):
            def job():
                ws.client.kinit(username, password)
                outcomes.append(username)
            return job

        start = net.clock.now()
        for i, (ws, (username, password)) in enumerate(
            zip(stations, users)
        ):
            net.runtime.at(
                start + 0.005 * (i + 1), login(ws, username, password),
                label="test.login",
            )
        # Scheduled logins fire while move_range's transfer RPCs pump
        # the event loop — genuine interleaving on one clock.
        arcs = realm.ring.arcs_of(0)
        lo, hi = max(arcs, key=lambda arc: arc[1] - arc[0])
        move_range(realm, lo, hi, 1)
        net.runtime.run_until_idle()
        assert sorted(outcomes) == sorted(u for u, _ in users)

    def test_concurrent_registration_is_caught_up(self):
        """A principal registered *during* the stream lands on the
        target via the journal catch-up pass — the double-serve window
        plus catch-up make the move atomic from the client's view."""
        net = Network(latency=0.01)
        realm = sharded_realm(net, shards=2)
        user_on_shard(realm, 0)  # ensure the range is non-empty
        arcs = realm.ring.arcs_of(0)
        lo, hi = max(arcs, key=lambda arc: arc[1] - arc[0])
        # Find a fresh name hashing into the moved range.
        late = None
        for i in range(4096):
            name = f"late{i}"
            if lo <= hash_point(name) < hi:
                late = name
                break
        assert late is not None

        net.runtime.at(
            net.clock.now() + 0.01,
            lambda: realm.add_user(late, f"{late}-pw"),
            label="test.register",
        )
        move_range(realm, lo, hi, 1)
        net.runtime.run_until_idle()
        assert late in realm.shards[1].db.store
        ws = realm.workstation()
        ws.client.kinit(late, f"{late}-pw")


class TestMoveRangeOnALossyLink:
    """The stream rides the source shard's kprop, so it retransmits by
    that kprop's policy — and a move that cannot finish leaves the ring,
    both databases' ownership and the double-serve window as it found
    them."""

    def world(self, monkeypatch):
        from repro.realm import sharding

        monkeypatch.setattr(sharding, "STREAM_CHUNK", 2)  # several datagrams
        net = Network(seed=755)
        realm = sharded_realm(net, shards=2)
        users = [user_on_shard(realm, 0, prefix=f"l{i}x") for i in range(6)]
        return net, realm, users

    def test_retrying_kprop_completes_the_move(self, monkeypatch):
        net, realm, users = self.world(monkeypatch)
        realm.shards[0].kprop.retry_policy = RetryPolicy(max_attempts=16)
        net.faults.add(Loss(0.5, Match.build(port=SHARD_PORT)))
        result = move_range(realm, 0, RING_SPACE, 1)
        assert result.moved >= len(users) and result.deleted == result.moved
        assert net.metrics.total("net.drops_total") > 0
        applied = net.metrics.total(
            "shard.range_transfers_total", result="applied"
        )
        assert applied == -(-result.moved // 2)  # every chunk, each once
        assert net.audit.count("replay_detected") == 0
        ws = realm.workstation()
        for username, password in users:
            ws.client.kdestroy()
            ws.client.kinit(username, password)

    def test_single_attempt_fails_typed_and_closes_the_window(
        self, monkeypatch
    ):
        net, realm, users = self.world(monkeypatch)
        epoch = realm.ring.epoch
        rule = net.faults.add(Loss(1.0, Match.build(port=SHARD_PORT)))
        with pytest.raises(RetryExhausted):
            move_range(realm, 0, RING_SPACE, 1)
        assert realm.shards[1].membership.extra_ranges == []
        assert realm.ring.epoch == epoch
        ws = realm.workstation()
        ws.client.kinit(*users[0])  # still served where it always was
        # Nothing flipped, so the move is simply run again.
        net.faults.remove(rule)
        assert move_range(realm, 0, RING_SPACE, 1).deleted >= len(users)
        ws.client.kdestroy()
        ws.client.kinit(*users[0])


class TestWireCompatibility:
    def test_referral_rides_the_frozen_error_envelope(self):
        """The referral is carried entirely inside the v4 ``ERROR``
        reply — same message type, same two fields — so pre-sharding
        clients decode it as an ordinary typed error and the golden
        wire vectors stay valid."""
        text = referral_text(1, 7, ["18.72.0.5", "18.72.0.6"])
        wire = encode_message(
            MessageType.ERROR,
            ErrorReply(code=ErrorCode.KDC_WRONG_SHARD, text=text),
        )
        plain = encode_message(
            MessageType.ERROR, ErrorReply(code=12, text=text)
        )
        assert wire == plain
        mtype, message = decode_message(wire)
        assert mtype == MessageType.ERROR
        assert message.FIELDS == ErrorReply.FIELDS

    def test_wrong_shard_parses_its_own_text(self):
        err = WrongShard(
            ErrorCode.KDC_WRONG_SHARD,
            referral_text(2, 9, ["18.72.0.7"]),
        )
        assert err.shard == 2
        assert err.ring_epoch == 9
        assert err.kdcs == ["18.72.0.7"]
