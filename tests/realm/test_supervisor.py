"""The realm supervisor: heartbeat detection, automatic promotion,
flap protection, discovery re-pointing, and old-master rejoin.

The acceptance bar for the self-healing loop: kill the master, touch
nothing, and watch the realm elect a new master, re-point its clients,
and absorb the old master back as a slave — without a second journal
epoch conflict when it returns.
"""

import pytest

from repro.apps.hesiod import HesiodServer, hesiod_lookup, shard_record_name
from repro.core import StaticLocator
from repro.netsim import Network
from repro.principal import Principal
from repro.realm import Realm, RealmSupervisor, RealmTopology
from repro.realm.sharding import HesiodRingSource, ShardedLocator
from repro.realm.supervisor import DWELL_TIME, FAILURE_THRESHOLD, HEARTBEAT_INTERVAL

REALM = "ATHENA.MIT.EDU"

#: 5 s heartbeats, 3 misses to promote → detection in ~15 s.
DETECT = FAILURE_THRESHOLD * HEARTBEAT_INTERVAL + 10.0


def build(seed=11, slaves=2):
    net = Network(seed=seed)
    realm = Realm(net, REALM, topology=RealmTopology(slaves_per_shard=slaves))
    realm.add_user("jis", "jis-pw")
    realm.propagate()
    realm.schedule_incremental(interval=30.0)
    supervisor = RealmSupervisor(realm).attach(net.add_host("realm-monitor"))
    return net, realm, supervisor


def promotions(net):
    return net.metrics.total("realm.promotions_total", realm=REALM)


class TestDetection:
    def test_healthy_realm_never_promotes(self):
        net, realm, supervisor = build()
        net.runtime.run_for(300.0)
        assert promotions(net) == 0
        assert all(v == 0 for v in supervisor.misses.values())

    def test_heartbeats_are_counted_per_target(self):
        net, realm, supervisor = build()
        net.runtime.run_for(30.0)
        site = realm.shards[0]
        for host in [site.master_host] + [s.host for s in site.slaves]:
            assert net.metrics.total(
                "supervisor.heartbeats_total", target=host.name, result="ok"
            ) > 0

    def test_single_missed_heartbeat_does_not_promote(self):
        net, realm, supervisor = build()
        site = realm.shards[0]
        net.runtime.run_for(20.0)
        # Bounce the master briefly: at most 1-2 missed probes.
        net.crash_host(site.master_host.name, downtime=6.0)
        old_master = site.master_host
        net.runtime.run_for(60.0)
        assert promotions(net) == 0
        assert site.master_host is old_master


class TestAutomaticPromotion:
    def test_master_death_promotes_without_manual_intervention(self):
        net, realm, supervisor = build()
        site = realm.shards[0]
        old_master = site.master_host
        net.runtime.run_for(10.0)
        net.crash_host(old_master.name)          # never restarts
        net.runtime.run_for(DETECT)
        assert promotions(net) == 1
        assert site.master_host is not old_master
        # Writes work on the new master immediately.
        realm.add_user("fresh", "fresh-pw")
        assert site.db.exists(Principal("fresh", "", REALM))

    def test_promotion_picks_the_freshest_slave(self):
        net, realm, supervisor = build()
        site = realm.shards[0]
        net.runtime.run_for(10.0)
        # Report slave 1 as the most recently caught-up replica.
        addr0 = site.slaves[0].host.address
        addr1 = site.slaves[1].host.address
        site.kprop.last_applied_time[addr0] = 100.0
        site.kprop.last_applied_time[addr1] = 200.0
        expected = site.slaves[1].host
        net.crash_host(site.master_host.name)
        net.runtime.run_for(DETECT)
        assert site.master_host is expected

    def test_unhealthy_slave_is_not_a_candidate(self):
        net, realm, supervisor = build()
        site = realm.shards[0]
        net.runtime.run_for(10.0)
        # The fresher slave is ALSO down; the stale-but-alive one wins.
        addr1 = site.slaves[1].host.address
        site.kprop.last_applied_time[addr1] = 999.0
        survivor = site.slaves[0].host
        net.crash_host(site.slaves[1].host.name)
        net.runtime.run_for(20.0)                # let its misses register
        net.crash_host(site.master_host.name)
        net.runtime.run_for(DETECT)
        assert site.master_host is survivor

    def test_clients_are_repointed(self):
        net, realm, supervisor = build()
        hesiod = HesiodServer().attach(net.add_host("hesiod-server"))
        realm.attach_hesiod(hesiod)
        ws = realm.workstation("ws1")
        net.runtime.run_for(10.0)
        net.crash_host(realm.shards[0].master_host.name)
        net.runtime.run_for(DETECT)
        new_master = realm.shards[0].master_host
        # Workstation directory and the Hesiod shard record both lead
        # with the new master.
        assert ws.client.kdcs(REALM)[0] == new_master.address
        looked_up = hesiod_lookup(
            ws.host, hesiod.host.address, shard_record_name(REALM, 0)
        )
        assert looked_up.addresses[0] == str(new_master.address)
        # And a login straight after the failover works.
        ws.client.kinit("jis", "jis-pw")

    def test_observability_of_the_promotion(self):
        net, realm, supervisor = build()
        net.runtime.run_for(10.0)
        net.crash_host(realm.shards[0].master_host.name)
        net.runtime.run_for(DETECT)
        promoted = [
            e for e in net.audit.events() if e.kind == "master_promoted"
        ]
        assert len(promoted) == 1
        assert promoted[0].host == realm.shards[0].master_host.name
        assert promoted[0].trace_id       # joined to the supervisor trace
        assert net.metrics.total("realm.promotions_total", realm=REALM) == 1
        ttr = net.metrics.total("realm.time_to_recover_seconds", realm=REALM)
        assert 0.0 < ttr <= DETECT


class TestPromotionWithHesiodDown:
    def test_promotion_survives_an_unreachable_hesiod(self):
        """The master dies while Hesiod is down and a workstation
        discovers through Hesiod.  Re-pointing only drops that
        workstation's view, so the promotion completes, is audited, and
        the heartbeat keeps ticking; once Hesiod is back the workstation
        re-fetches on its next lookup and logs in at the new master."""
        net, realm, supervisor = build(slaves=1)
        site = realm.shards[0]
        hesiod = HesiodServer().attach(net.add_host("hesiod-server"))
        realm.attach_hesiod(hesiod)
        ws = realm.workstation("ws-hes")
        ws.client.set_locator(REALM, ShardedLocator(
            HesiodRingSource(ws.host, hesiod.host.address, REALM)
        ))
        ws.client.kinit("jis", "jis-pw")  # the locator now holds a view
        old_master = site.master_host
        net.runtime.run_for(10.0)
        net.crash_host(hesiod.host.name)
        net.crash_host(old_master.name)
        net.runtime.run_for(120.0)  # nothing may escape the event loop
        assert promotions(net) == 1
        assert site.master_host is not old_master
        promoted = net.audit.events("master_promoted")
        assert len(promoted) == 1 and promoted[0].trace_id
        beats = net.metrics.total("supervisor.heartbeats_total")
        net.runtime.run_for(30.0)
        assert net.metrics.total("supervisor.heartbeats_total") > beats

        net.restart_host(hesiod.host.name)
        queries = hesiod.queries
        served = net.metrics.total(
            "kdc.requests_total", server=site.master_host.name
        )
        ws.client.kdestroy()
        ws.client.kinit("jis", "jis-pw")
        # One lazy re-fetch (ring + shard 0), answered by the new master.
        assert hesiod.queries == queries + 2
        assert ws.client.kdcs(REALM)[0] == site.master_host.address
        assert net.metrics.total(
            "kdc.requests_total", server=site.master_host.name
        ) == served + 1


class TestFlapProtection:
    def test_dwell_time_suppresses_a_second_promotion(self):
        net, realm, supervisor = build()
        net.runtime.run_for(10.0)
        net.crash_host(realm.shards[0].master_host.name)
        net.runtime.run_for(DETECT)
        assert promotions(net) == 1
        # The new master dies inside the dwell window: suppressed.
        net.crash_host(realm.shards[0].master_host.name)
        net.runtime.run_for(DETECT)
        assert promotions(net) == 1
        assert net.metrics.total("supervisor.promotions_suppressed_total", realm=REALM) > 0

    def test_promotion_allowed_again_after_dwell(self):
        net, realm, supervisor = build()
        net.runtime.run_for(10.0)
        net.crash_host(realm.shards[0].master_host.name)
        net.runtime.run_for(DETECT)
        net.runtime.run_for(DWELL_TIME)          # sit out the dwell
        net.crash_host(realm.shards[0].master_host.name)
        net.runtime.run_for(DETECT)
        assert promotions(net) == 2


class TestRejoin:
    def test_old_master_rejoins_without_second_epoch_conflict(self):
        """The acceptance bar: the demoted master restarts, NEED_FULLs
        into the promoted journal's epoch, then rides delta streams —
        no second epoch bump, no divergent history."""
        net, realm, supervisor = build()
        site = realm.shards[0]
        old_master = site.master_host
        net.runtime.run_for(10.0)
        net.crash_host(old_master.name, downtime=60.0)
        net.runtime.run_for(120.0)               # promote; old one returns
        assert promotions(net) == 1
        epoch_after_promotion = site.db.journal.epoch

        rejoined = [
            e for e in net.audit.events() if e.kind == "slave_rejoined"
        ]
        assert [e.host for e in rejoined] == [old_master.name]

        # New writes flow to the former master through normal kprop.
        realm.add_user("written-after", "pw")
        result = realm.propagate()
        assert result.all_ok
        old_site = next(
            s for s in site.slaves if s.host is old_master
        )
        assert old_site.db.exists(Principal("written-after", "", REALM))
        # Same epoch on both ends; the promotion bumped it exactly once.
        assert old_site.kpropd.applied_epoch == epoch_after_promotion
        assert site.db.journal.epoch == epoch_after_promotion

    def test_rejoined_master_serves_reads(self):
        net, realm, supervisor = build()
        old_master = realm.shards[0].master_host
        net.runtime.run_for(10.0)
        net.crash_host(old_master.name, downtime=60.0)
        net.runtime.run_for(150.0)
        ws = realm.workstation("ws-direct")
        # Point the client straight at the rejoined ex-master: its KDC
        # still answers AS requests from its (caught-up) replica.
        ws.client.set_locator(REALM, StaticLocator([old_master.address]))
        ws.client.kinit("jis", "jis-pw")


class TestSupervisorLifecycle:
    def test_detach_stops_the_heartbeat(self):
        net, realm, supervisor = build()
        net.runtime.run_for(10.0)
        supervisor.detach()
        master = realm.shards[0].master_host.name
        before = net.metrics.total("supervisor.heartbeats_total", target=master, result="ok")
        net.runtime.run_for(60.0)
        after = net.metrics.total("supervisor.heartbeats_total", target=master, result="ok")
        assert after == before

    def test_monitor_crash_and_restart_resumes_with_clean_state(self):
        net, realm, supervisor = build()
        net.runtime.run_for(10.0)
        # Master dies while the monitor is ALSO down.
        net.crash_host("realm-monitor", downtime=100.0)
        net.crash_host(realm.shards[0].master_host.name, downtime=30.0)
        net.runtime.run_for(80.0)
        # Nobody was watching; no promotion happened...
        assert promotions(net) == 0
        # ...and after both return, suspicion restarts from zero and
        # the (healthy again) master is never wrongly deposed.
        net.runtime.run_for(120.0)
        assert promotions(net) == 0
        assert net.metrics.total(
            "supervisor.heartbeats_total",
            target=realm.shards[0].master_host.name, result="ok",
        ) > 0


class TestDeterminism:
    def test_same_seed_same_story(self):
        def story(seed):
            net, realm, supervisor = build(seed=seed)
            net.runtime.run_for(10.0)
            net.crash_host(realm.shards[0].master_host.name, downtime=60.0)
            net.runtime.run_for(200.0)
            return (
                realm.shards[0].master_host.name,
                promotions(net),
                [(e.kind, e.host, e.time) for e in net.audit.events()],
                net.metrics.total("realm.time_to_recover_seconds", realm=REALM),
            )

        assert story(99) == story(99)
