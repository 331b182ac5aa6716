"""The Section 9 scale machinery: a campaign world's population and its
three load shapes (paced logins, session traffic, the busy hour)."""

import pytest

import repro.scenarios as scenarios
from repro.netsim.ports import KERBEROS_PORT, KPROP_PORT
from repro.scenarios.engine import World

REALM = "ATHENA.MIT.EDU"

#: Section 9's busy hour, small: one slave, quick arrivals.
HOUR = scenarios.get("athena_hour").override(
    n_users=50, n_services=10, n_stations=4, window=8.0
)


@pytest.fixture
def world():
    return World(HOUR, seed=7)


class TestPopulation:
    def test_users_and_services_registered(self, world):
        assert len(world.realm.db) >= 60
        assert len(world.users) == 50
        assert len(world.services) == 10

    def test_registered_users_can_login(self, world):
        ws = world.realm.workstation()
        username, password = world.users[0]
        assert ws.client.kinit(username, password) is not None

    def test_deterministic_per_seed(self):
        def run(seed):
            w = World(HOUR.override(n_users=20, n_services=5), seed)
            return [w.random_user() for _ in range(10)]

        assert run(3) == run(3)
        assert run(3) != run(4)

    def test_working_set_is_heavy_tailed(self, world):
        picks = world.pick_services(500)
        indexes = [world.services.index(s) for s in picks]
        # The most popular service dominates.
        assert indexes.count(0) > len(indexes) * 0.3

    def test_workstations_spread_kdc_preference(self, world):
        preferred = [ws.client.kdcs(REALM)[0] for ws in world.stations]
        assert len(set(preferred)) == 3  # master + 2 slaves rotate


def kdc_requests(result, kind):
    return result.world.net.metrics.total("kdc.requests_total", kind=kind)


class TestDrivers:
    def test_login_storm(self):
        result = scenarios.run(
            "morning_login_storm", seed=7, n_users=50, n_stations=10, window=5.0
        )
        assert result.outcomes == {"ok": 10}
        # One AS exchange each.
        assert result.world.net.metrics.total("net.datagrams_total", port=KERBEROS_PORT) == 10

    def test_session_traffic_caches_tickets(self):
        result = scenarios.run(HOUR, seed=7, n_stations=5, uses_per_session=8)
        assert result.notes["service_uses"] == 40
        assert result.outcomes == {"ok": 45}
        # Far fewer TGS exchanges than uses: the cache works.
        assert result.notes["kdc_messages"] < result.notes["service_uses"]
        assert 0 < result.notes["kdc_requests_per_use"] < 1

    def test_busy_hour_combined(self):
        """Exp S9's busy hour: each station logs in, then works its
        session."""
        result = scenarios.run(HOUR, seed=7, n_stations=8, uses_per_session=4)
        assert result.notes["logins"] == 8
        assert result.notes["service_uses"] == 32
        assert kdc_requests(result, "as") == 8
        assert result.notes["kdc_messages"] == 8 + kdc_requests(result, "tgs")

    def test_stats_never_reset_the_registry(self):
        """Observations read the registry, never reset it: the
        population's propagation is still counted after the run, and the
        KDC count leaves it out."""
        result = scenarios.run(HOUR, seed=7, n_stations=3, uses_per_session=1)
        metrics = result.world.net.metrics
        assert metrics.total("net.datagrams_total", port=KPROP_PORT) > 0
        assert result.notes["kdc_messages"] == metrics.total(
            "net.datagrams_total", port=KERBEROS_PORT
        )
