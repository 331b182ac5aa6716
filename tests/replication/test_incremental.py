"""Incremental propagation: delta kprop, catch-up, and fallback paths.

The update journal + delta protocol shrink the Figure 13 consistency
window from "up to an hour" to the incremental cadence — but only if
every degraded path (crash-restart, partition, gap, epoch change,
tampering) falls back to the full dump correctly.  These scenarios
exercise each one and pin same-seed determinism of the whole plane.
"""

import hashlib

import pytest

from repro.crypto import string_to_key
from repro.database.journal import default_epoch
from repro.netsim import Network
from repro.principal import Principal
from repro.realm import Realm, RealmTopology

pytestmark = pytest.mark.replication

REALM_NAME = "ATHENA.MIT.EDU"


def build_realm(seed=77):
    net = Network(seed=seed)
    realm = Realm(net, REALM_NAME, topology=RealmTopology(slaves_per_shard=2))
    realm.add_user("jis", "jis-pw")
    realm.propagate()  # everyone synced; high-water marks established
    return net, realm


def store_digest(db) -> str:
    h = hashlib.sha256()
    for key, value in db.store.items():
        h.update(key.encode())
        h.update(value)
    return h.hexdigest()


class TestDeltaRounds:
    def test_steady_state_rounds_are_deltas(self):
        net, realm = build_realm()
        site = realm.shards[0]
        site.db.change_key(
            Principal("jis", "", REALM_NAME), new_password="new-pw"
        )
        result = realm.propagate()
        assert result.all_ok
        assert set(result.modes.values()) == {"delta"}
        for slave in site.slaves:
            assert slave.db.principal_key(
                Principal("jis", "", REALM_NAME)
            ) == string_to_key("new-pw")
            assert store_digest(slave.db) == store_digest(site.db)

    def test_slaves_at_one_mark_share_one_delta(self, monkeypatch):
        """The steady state: every slave at the same high-water mark.
        The round builds, encodes and CBC-MACs the delta once and hands
        each slave the identical bytes; slaves at different marks still
        get one build each."""
        from repro.database import masterkey
        from repro.netsim.ports import KPROP_PORT

        net, realm = build_realm()
        site = realm.shards[0]
        jis = Principal("jis", "", REALM_NAME)
        macs, wires = [], []
        real = masterkey.cbc_mac
        monkeypatch.setattr(
            masterkey, "cbc_mac",
            lambda key, data: macs.append(len(data)) or real(key, data),
        )
        net.add_tap(
            lambda d: d.dst_port == KPROP_PORT and wires.append(d.payload)
        )

        def round_after_a_change(password):
            del macs[:], wires[:]
            site.db.change_key(jis, new_password=password)
            result = realm.propagate()
            assert result.all_ok and result.deltas == 2
            return result

        assert len(set(site.kprop.high_water.values())) == 1
        round_after_a_change("one")
        # One checksum at the master, where the parent commit made one
        # per slave (each slave verifies its copy by another path).
        assert len(macs) == 1
        assert len(wires) == 2 and wires[0] == wires[1]

        # Hold one slave back a round: two marks, two builds.
        cut = net.partition([site.slaves[1].host.name])
        site.db.change_key(jis, new_password="missed")
        assert not realm.propagate().all_ok
        net.heal(cut)
        assert len(set(site.kprop.high_water.values())) == 2
        round_after_a_change("two")
        assert len(macs) == 2
        assert len(wires) == 2 and len(wires[0]) < len(wires[1])
        for slave in site.slaves:
            assert slave.db.principal_key(jis) == string_to_key("two")

    def test_empty_delta_is_a_heartbeat(self):
        """No changes → a zero-entry delta still confirms freshness."""
        net, realm = build_realm()
        site = realm.shards[0]
        before = site.slaves[0].kpropd.staleness(net.clock.now())
        net.runtime.run_for(120.0)
        result = realm.propagate()
        assert result.all_ok and result.deltas == 2
        assert site.slaves[0].kpropd.staleness(net.clock.now()) < before + 120.0
        assert site.slaves[0].kpropd.applied_seq == site.db.journal.last_seq

    def test_delta_moves_fewer_bytes_than_full(self):
        net, realm = build_realm()
        for i in range(200):
            realm.add_user(f"bulk{i:03d}", "pw")
        realm.propagate()  # delta carrying the 200 adds
        realm.shards[0].db.change_key(Principal("jis", "", REALM_NAME), new_password="x")
        base = net.metrics.total("repl.delta_bytes_total")
        realm.propagate()
        delta_bytes = net.metrics.total("repl.delta_bytes_total") - base
        full_bytes = len(realm.shards[0].db.dump())
        assert delta_bytes > 0
        assert delta_bytes * 10 < full_bytes * 2  # one change, two slaves

    def test_incremental_cadence_shrinks_staleness(self):
        net, realm = build_realm()
        realm.schedule_incremental(interval=30.0)
        realm.add_user("late", "pw")
        net.runtime.run_for(31.0)
        for slave in realm.shards[0].slaves:
            assert slave.db.exists(Principal("late", "", REALM_NAME))
            assert slave.kpropd.staleness(net.clock.now()) <= 31.0


class TestCatchUpAndFallback:
    def test_crash_restarted_slave_falls_back_to_full_dump(self):
        """A crash loses kpropd's applied position; the next delta is
        answered NEED_FULL and the master ships a full dump in the same
        round."""
        net, realm = build_realm()
        site = realm.shards[0]
        victim = site.slaves[0]
        net.crash_host(victim.host.name)
        realm.add_user("while-down", "pw")
        mid = realm.propagate()  # victim unreachable, peer gets the delta
        assert str(victim.host.address) in mid.failures
        net.restart_host(victim.host.name)
        realm.add_user("after-restart", "pw")
        result = realm.propagate()
        assert result.all_ok
        assert result.modes[str(victim.host.address)] == "delta+full"
        assert result.modes[str(site.slaves[1].host.address)] == "delta"
        assert store_digest(victim.db) == store_digest(site.db)
        assert net.metrics.total("repl.delta_fallbacks_total") >= 1

    def test_partition_then_heal_converges_by_delta(self):
        """A partitioned slave misses rounds but keeps its position, so
        healing catches it up with a delta, not a full dump."""
        net, realm = build_realm()
        victim = realm.shards[0].slaves[0]
        cut = net.partition([victim.host.name])
        realm.add_user("p1", "pw")
        realm.propagate()
        realm.add_user("p2", "pw")
        mid = realm.propagate()
        assert str(victim.host.address) in mid.failures
        assert not victim.db.exists(Principal("p1", "", REALM_NAME))
        net.heal(cut)
        result = realm.propagate()
        assert result.all_ok
        assert result.modes[str(victim.host.address)] == "delta"
        assert store_digest(victim.db) == store_digest(realm.shards[0].db)

    def test_journal_compaction_gap_forces_full_dump(self):
        """A slave so far behind that the journal compacted past its
        position gets a full dump — chosen master-side, no round trip."""
        net, realm = build_realm()
        site = realm.shards[0]
        site.db.journal.limit = 8
        victim = site.slaves[0]
        cut = net.partition([victim.host.name])
        for i in range(20):  # > journal limit while partitioned
            realm.add_user(f"burst{i:02d}", "pw")
        realm.propagate()
        net.heal(cut)
        result = realm.propagate()
        assert result.all_ok
        assert result.modes[str(victim.host.address)] == "full"
        assert store_digest(victim.db) == store_digest(site.db)

    def test_epoch_change_forces_full_dump(self):
        """A rebuilt master journal (new epoch) invalidates every
        high-water mark — next round is full dumps everywhere."""
        net, realm = build_realm()
        site = realm.shards[0]
        site.db.journal.bump_epoch()
        realm.add_user("fresh-epoch", "pw")
        result = realm.propagate()
        assert result.all_ok
        assert set(result.modes.values()) == {"full"}
        for slave in site.slaves:
            assert store_digest(slave.db) == store_digest(site.db)

    def test_slave_side_epoch_mismatch_answers_need_full(self):
        """If the master's mark is somehow stale-valid but the slave's
        epoch differs (restored from an old backup), the slave refuses
        the delta and the round falls back."""
        net, realm = build_realm()
        victim = realm.shards[0].slaves[0]
        victim.kpropd.applied_epoch = default_epoch(REALM_NAME, 99)
        realm.add_user("post-restore", "pw")
        result = realm.propagate()
        assert result.all_ok
        assert result.modes[str(victim.host.address)] == "delta+full"
        assert store_digest(victim.db) == store_digest(realm.shards[0].db)

    def test_promoted_master_resyncs_survivors_with_full_dumps(self):
        """Slave promotion starts a new journal epoch; the surviving
        slave is resynced by full dump, then rides deltas again."""
        net, realm = build_realm()
        site = realm.shards[0]
        net.set_down(site.master_host.name)
        realm.promote_slave(0)
        realm.add_user("after-promotion", "pw")
        result = realm.propagate()
        assert result.all_ok
        survivor = site.slaves[0]
        assert result.modes[str(survivor.host.address)] == "full"
        assert store_digest(survivor.db) == store_digest(site.db)
        realm.add_user("steady-again", "pw")
        again = realm.propagate()
        assert again.all_ok
        assert again.modes[str(survivor.host.address)] == "delta"


class TestDeltaIntegrity:
    def test_tampered_delta_rejected_by_checksum(self):
        """The Figure 13 trust model is unchanged for deltas: flip one
        byte in transit and the slave keeps its old database."""
        net, realm = build_realm()
        site = realm.shards[0]
        realm.add_user("victim", "pw")

        def flip(datagram):
            if datagram.dst_port == 754 and len(datagram.payload) > 40:
                payload = bytearray(datagram.payload)
                payload[-5] ^= 0x01
                return type(datagram)(
                    src=datagram.src, src_port=datagram.src_port,
                    dst=datagram.dst, dst_port=datagram.dst_port,
                    payload=bytes(payload),
                )
            return datagram

        net.add_interceptor(flip)
        result = realm.propagate()
        net.remove_interceptor(flip)
        assert not result.all_ok
        for slave in site.slaves:
            assert slave.kpropd.updates_rejected >= 1
            assert not slave.db.exists(Principal("victim", "", REALM_NAME))
        # The marks were not advanced; a clean round heals by delta.
        clean = realm.propagate()
        assert clean.all_ok
        assert set(clean.modes.values()) == {"delta"}
        for slave in site.slaves:
            assert store_digest(slave.db) == store_digest(site.db)


class TestStalenessAccounting:
    def test_master_gauge_agrees_with_kpropd_staleness(self):
        """One definition, two observers: ``repl.slave_lag_seconds`` is
        computed from the slave's own applied_time report, so gauge and
        :meth:`Kpropd.staleness` agree exactly at round time."""
        net, realm = build_realm()
        realm.propagate()
        victim = realm.shards[0].slaves[0]
        net.set_down(victim.host.name)
        net.runtime.run_for(500.0)
        realm.propagate()  # victim misses this round; gauge updates anyway
        now = net.clock.now()
        gauge = net.metrics.get(
            "repl.slave_lag_seconds",
            {"master": realm.shards[0].master_host.name,
             "slave": str(victim.host.address)},
        )
        assert gauge is not None
        assert gauge.value == pytest.approx(victim.kpropd.staleness(now))
        # And a rejected transfer must NOT reset either clock: only an
        # applied update counts.
        assert victim.kpropd.staleness(now) >= 500.0

    def test_gauge_resets_after_applied_update(self):
        net, realm = build_realm()
        site = realm.shards[0]
        net.runtime.run_for(300.0)
        realm.propagate()
        gauge = net.metrics.get(
            "repl.slave_lag_seconds",
            {
                "master": site.master_host.name,
                "slave": str(site.slaves[0].host.address),
            },
        )
        assert gauge.value == pytest.approx(
            site.slaves[0].kpropd.staleness(net.clock.now())
        )
        assert gauge.value < 1.0


class TestDeterminism:
    def test_same_seed_same_snapshot(self):
        """The whole incremental plane — journal, deltas, crash fallback
        — is deterministic under the seeded simulation."""

        def run(seed):
            net, realm = build_realm(seed=seed)
            realm.schedule_incremental(interval=30.0)
            realm.add_user("a", "pw-a")
            net.runtime.run_for(35.0)
            net.crash_host(realm.shards[0].slaves[0].host.name, downtime=40.0)
            realm.add_user("b", "pw-b")
            net.runtime.run_for(90.0)
            realm.shards[0].db.change_key(
                Principal("a", "", REALM_NAME), new_password="z"
            )
            net.runtime.run_for(60.0)
            return [store_digest(realm.shards[0].db)] + [
                store_digest(s.db) for s in realm.shards[0].slaves
            ]

        first, second = run(1234), run(1234)
        assert first == second
        assert len(set(first)) == 1  # and everyone converged

    def test_different_history_different_digest(self):
        net, realm = build_realm()
        before = store_digest(realm.shards[0].db)
        realm.add_user("x", "pw")
        assert store_digest(realm.shards[0].db) != before
