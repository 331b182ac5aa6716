"""Chaos: KDC failover under partitions and crashes (Figure 10).

*"To obtain credentials, authentication can run on both master and
slave machines; changes to the database may only be made on the
master."*  These scenarios cut the master off and check that exactly
that split survives: the authentication plane fails over to slaves,
unexpired ticket holders never notice, and only the administrative
plane degrades — loudly and typed.
"""

import pytest

from repro.core import RetryPolicy
from repro.core.applib import krb_rd_req
from repro.kdbm import KdbmClient, KdbmTimeout
from repro.netsim import Network
from repro.principal import Principal
from repro.realm import Realm, RealmTopology
from repro.user import kpasswd

pytestmark = pytest.mark.chaos

REALM_NAME = "ATHENA.MIT.EDU"


def build_realm(seed=101, slaves=2):
    net = Network(seed=seed)
    realm = Realm(net, REALM_NAME, topology=RealmTopology(slaves_per_shard=slaves))
    realm.add_user("jis", "jis-pw")
    realm.add_service("rcmd", "priam")
    realm.propagate()
    return net, realm


class TestMasterPartition:
    def test_fresh_client_fails_over_to_slave_within_deadline(self):
        """The acceptance scenario: master partitioned, a fresh
        workstation still logs in and obtains a service ticket from a
        slave, inside its retry deadline, with the failover visible in
        the metrics."""
        net, realm = build_realm()
        site = realm.shards[0]
        net.partition([site.master_host.name])

        policy = RetryPolicy(
            max_attempts=6, deadline=30.0, base_delay=0.5, jitter=0.25
        )
        ws = realm.workstation(retry_policy=policy)
        start = net.clock.now()
        ws.client.kinit("jis", "jis-pw")
        cred = ws.client.get_credential(Principal("rcmd", "priam", REALM_NAME))
        assert cred is not None
        assert net.clock.now() - start < 2 * policy.deadline

        # Both exchanges answered by a non-primary KDC.
        assert net.metrics.total("kdc.failovers_total", realm=REALM_NAME) == 2
        # First attempt hit the partitioned master, so each op retried.
        assert net.metrics.total("retry.attempts_total", op="as") >= 2
        assert net.metrics.total("retry.attempts_total", op="tgs") >= 2
        assert net.metrics.total("retry.exhausted_total") == 0
        # The load landed on slaves; the master saw nothing.
        master = site.master_host.name
        assert net.metrics.total("kdc.requests_total", server=master) == 0
        slave_load = sum(
            net.metrics.total("kdc.requests_total", server=s.host.name)
            for s in site.slaves
        )
        assert slave_load >= 2  # one AS + one TGS, minus nothing

    def test_unexpired_ticket_holders_are_unaffected(self):
        """Section 5 economics: tickets already issued keep working with
        no KDC in the loop at all — the service validates them locally
        against its srvtab."""
        net, realm = build_realm()
        service = Principal("rcmd", "priam", REALM_NAME)
        other, _ = realm.add_service("rcmd", "helen")
        realm.propagate()
        srvtab = realm.srvtab_for(service)

        ws = realm.workstation()
        ws.client.kinit("jis", "jis-pw")
        ws.client.get_credential(service)  # cached before the cut

        net.partition([realm.shards[0].master_host.name])
        # The cached service ticket authenticates with no KDC involved:
        # the server validates it locally against its srvtab.
        request, _, _ = ws.client.mk_req(service)
        ctx = krb_rd_req(
            request, service, srvtab, ws.host.address, net.clock.now()
        )
        assert ctx.client == Principal("jis", "", REALM_NAME)
        # And the cached TGT still buys *new* tickets — from a slave TGS.
        assert ws.client.get_credential(other) is not None
        assert net.metrics.total("kdc.failovers_total", realm=REALM_NAME) >= 1

    def test_admin_plane_degrades_typed_then_recovers(self):
        """While the master is partitioned, kpasswd fails fast with
        KdbmTimeout (never silently, never forever); after heal it
        succeeds and the change propagates."""
        net, realm = build_realm(slaves=1)
        site = realm.shards[0]
        ws = realm.workstation()
        kdbm = KdbmClient(
            ws.client,
            site.master_host.address,
            retry_policy=RetryPolicy(max_attempts=2),
        )

        net.partition([site.master_host.name])
        with pytest.raises(KdbmTimeout) as exc_info:
            kpasswd(kdbm, "jis", "jis-pw", "summer-88")
        assert exc_info.value.attempts == 2
        assert net.metrics.total("retry.exhausted_total", op="kdbm") == 1

        net.heal()
        out = kpasswd(kdbm, "jis", "jis-pw", "summer-88")
        assert "Password changed" in out
        realm.propagate()
        # The new password now works realm-wide, including on a slave.
        net.set_down(site.master_host.name)
        ws2 = realm.workstation()
        ws2.client.kinit("jis", "summer-88")


class TestCrashRestart:
    def test_backoff_rides_out_a_kdc_crash(self):
        """A single-KDC realm whose master crashes and restarts: a retry
        policy whose backoff spans the downtime logs in without any
        failover target at all."""
        net, realm = build_realm(slaves=0)
        net.crash_host(realm.shards[0].master_host.name, downtime=10.0)

        ws = realm.workstation(
            retry_policy=RetryPolicy(
                max_attempts=6, base_delay=4.0, multiplier=2.0
            )
        )
        ws.client.kinit("jis", "jis-pw")
        # Attempts at t=0 and t=4 hit a dead host; the t=12 one lands
        # after the t=10 restart.
        assert net.metrics.total("retry.attempts_total", op="as") == 3
        assert net.metrics.total("faults.injected_total", kind="crash") == 1
        assert net.metrics.total("faults.injected_total", kind="restart") == 1
        assert net.metrics.total("kdc.failovers_total") == 0
