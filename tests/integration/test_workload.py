"""Workload generator tests (the Section 9 scale machinery)."""

import pytest

from repro.netsim import Network
from repro.netsim.ports import KPROP_PORT
from repro.realm import Realm, RealmTopology
from repro.workload import AthenaWorkload

REALM = "ATHENA.MIT.EDU"


@pytest.fixture
def workload():
    net = Network()
    realm = Realm(net, REALM, topology=RealmTopology(slaves_per_shard=1))
    return AthenaWorkload(realm, n_users=50, n_services=10, seed=7)


class TestPopulation:
    def test_users_and_services_registered(self, workload):
        assert len(workload.realm.db) >= 60
        assert len(workload.users) == 50
        assert len(workload.services) == 10

    def test_registered_users_can_login(self, workload):
        ws = workload.realm.workstation()
        username, password = workload.users[0]
        assert ws.client.kinit(username, password) is not None

    def test_deterministic_per_seed(self):
        def run(seed):
            net = Network()
            realm = Realm(net, REALM)
            w = AthenaWorkload(realm, n_users=20, n_services=5, seed=seed)
            return [w.random_user() for _ in range(10)]

        assert run(3) == run(3)
        assert run(3) != run(4)

    def test_working_set_is_heavy_tailed(self, workload):
        picks = workload.pick_services(500)
        indexes = [workload.services.index(s) for s in picks]
        # The most popular service dominates.
        assert indexes.count(0) > len(indexes) * 0.3

    def test_workstations_spread_kdc_preference(self, workload):
        stations = workload.workstations(4, spread_kdcs=True)
        preferred = [
            ws.client.kdcs(REALM)[0] for ws in stations
        ]
        assert len(set(preferred)) == 2  # master + 1 slave alternate


class TestDrivers:
    def test_login_storm(self, workload):
        stations = workload.workstations(10)
        stats = workload.login_storm(stations)
        assert stats.logins == 10
        assert stats.kdc_messages == 10  # one AS exchange each

    def test_session_traffic_caches_tickets(self, workload):
        stations = workload.workstations(5)
        workload.login_storm(stations)
        stats = workload.session_traffic(stations, uses_per_session=8)
        assert stats.service_uses == 40
        assert stats.failures == 0
        # Far fewer TGS exchanges than uses: the cache works.
        assert stats.kdc_messages < stats.service_uses
        assert 0 < stats.kdc_requests_per_use < 1

    def test_busy_hour_combined(self, workload):
        """Exp S9's busy hour: a login storm, then session traffic."""
        stations = workload.workstations(8)
        storm = workload.login_storm(stations)
        traffic = workload.session_traffic(stations, uses_per_session=4)
        assert storm.logins == 8
        assert traffic.service_uses == 32
        assert storm.kdc_messages == 8  # the AS exchanges

    def test_stats_never_reset_the_registry(self, workload):
        """Stats are deltas: traffic the caller counted before a login
        storm (the fixture's propagation) is still counted after it."""
        metrics = workload.realm.net.metrics
        before = metrics.total("net.datagrams_total", port=KPROP_PORT)
        assert before > 0
        stats = workload.login_storm(workload.workstations(3))
        assert metrics.total("net.datagrams_total", port=KPROP_PORT) == before
        assert stats.kdc_messages == 3
