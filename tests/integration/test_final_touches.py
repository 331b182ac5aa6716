"""Remaining small code paths: trace of preauth, workload failures,
SQLite close, realm API odds and ends."""

import pytest

from repro.database.schema import ATTR_REQUIRE_PREAUTH
from repro.netsim import Network
from repro.principal import Principal
from repro.realm import Realm
from repro.obs.wire import WireRecorder

REALM = "ATHENA.MIT.EDU"


class TestTracePreauth:
    def test_preauth_negotiation_visible_in_trace(self):
        net = Network()
        realm = Realm(net, REALM)
        realm.shards[0].db.add_principal(
            Principal("careful", "", REALM),
            password="pw",
            attributes=ATTR_REQUIRE_PREAUTH,
        )
        tracer = WireRecorder(net)
        ws = realm.workstation()
        ws.client.kinit("careful", "pw")
        text = tracer.format()
        assert "AS-REQ " in text            # the refused plain request
        assert "AS-REQ*" in text            # the preauth retry
        assert "ERROR" in text              # the KDC_PREAUTH_REQUIRED nudge
        assert "preauth=[" in text          # blob described, not dumped


class TestWorkloadFailures:
    def test_session_traffic_counts_failures(self):
        from dataclasses import replace

        import repro.scenarios as scenarios

        # Nobody logs in: every use fails, and is counted, not raised.
        row = replace(
            scenarios.get("athena_hour"), act=lambda world, i: ("nobody", lambda: None)
        )
        result = scenarios.run(
            row, seed=5, n_users=3, n_services=2, n_stations=2,
            uses_per_session=3, window=2.0,
        )
        uses = [r for r in result.world.records if r.service]
        assert len(uses) == 6
        assert all(r.outcome != "ok" for r in uses)
        assert result.notes["service_uses"] == 0


class TestSqliteClose:
    def test_operations_after_close_fail_loudly(self, tmp_path):
        import sqlite3

        from repro.database import SqliteStore

        store = SqliteStore(str(tmp_path / "x.db"))
        store.put("k", b"v")
        store.close()
        with pytest.raises(sqlite3.ProgrammingError):
            store.get("k")


class TestRealmOddsAndEnds:
    def test_service_key_lookup_unknown_raises(self):
        net = Network()
        realm = Realm(net, REALM)
        with pytest.raises(KeyError):
            realm.service_key(Principal("never", "added", REALM))

    def test_add_slave_after_bootstrap(self):
        net = Network()
        realm = Realm(net, REALM)
        realm.add_user("jis", "pw")
        site = realm.add_slave("late-slave")
        realm.propagate()
        assert site.db.exists(Principal("jis", "", REALM))
        # And it serves logins.
        net.set_down(realm.shards[0].master_host.name)
        ws = realm.workstation()
        assert ws.client.kinit("jis", "pw") is not None
