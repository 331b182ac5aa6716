"""The audit plane: closed vocabulary, trace joins, bounded append-only log."""

import pytest

from repro.netsim import Network, SimClock
from repro.obs import AUDIT_KINDS, AuditError, AuditLog, MetricsRegistry
from repro.obs.tracing import TraceContext
from repro.realm import Realm

pytestmark = pytest.mark.obs


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def registry():
    return MetricsRegistry()


@pytest.fixture
def log(clock, registry):
    return AuditLog(clock, metrics=registry)


class TestEmission:
    def test_unknown_kind_rejected(self, log):
        with pytest.raises(AuditError):
            log.emit("password_sighted")

    def test_every_declared_kind_accepted(self, log):
        for kind in AUDIT_KINDS:
            log.emit(kind, host="h")
        assert log.count() == len(AUDIT_KINDS)

    def test_events_stamped_on_sim_clock_with_sequence(self, clock, log):
        first = log.emit("auth_success", host="kdc")
        clock.advance(2.5)
        second = log.emit("auth_failure", host="kdc")
        assert (first.seq, second.seq) == (1, 2)
        assert first.time == 0.0
        assert second.time == pytest.approx(2.5)

    def test_trace_accepts_context_string_or_none(self, log):
        ctx = TraceContext("req-000042", 7)
        assert log.emit("auth_success", trace=ctx).trace_id == "req-000042"
        assert log.emit("auth_success", trace="req-000007").trace_id == "req-000007"
        assert log.emit("auth_success", trace=None).trace_id == ""

    def test_counts_per_kind(self, log, registry):
        log.emit("replay_detected", host="srv")
        log.emit("replay_detected", host="srv")
        log.emit("acl_denial", host="master")
        assert registry.total("audit.events_total", kind="replay_detected") == 2
        assert registry.total("audit.events_total", kind="acl_denial") == 1


class TestQueries:
    def test_filter_by_kind_and_trace(self, log):
        log.emit("auth_success", trace="req-000001")
        log.emit("auth_failure", trace="req-000002")
        log.emit("replay_detected", trace="req-000001")
        assert [e.kind for e in log.for_trace("req-000001")] == [
            "auth_success", "replay_detected",
        ]
        assert log.count("auth_failure") == 1

    def test_format_marks_principal_and_rid_only_when_present(self, log):
        tagged = log.emit(
            "auth_failure", host="kdc", principal="mallory", trace="req-000009"
        )
        bare = log.emit("replay_detected", host="srv")
        assert "principal=mallory" in tagged.format()
        assert "rid=req-000009" in tagged.format()
        assert "rid=" not in bare.format()

    def test_to_dicts_round_trips_fields(self, log):
        log.emit("overload_shed", host="kdc", detail="queue full")
        (d,) = log.to_dicts()
        assert d["kind"] == "overload_shed"
        assert d["host"] == "kdc"
        assert d["detail"] == "queue full"
        assert d["trace_id"] == ""


class TestBounds:
    def test_overflow_drops_and_counts(self, clock, registry):
        log = AuditLog(clock, metrics=registry, max_events=2)
        for _ in range(5):
            log.emit("auth_failure")
        assert len(log) == 2
        assert registry.total("audit.events_total") == 2
        assert registry.total("audit.events_dropped_total") == 3


class TestRealmWiring:
    """The detection points actually emit into ``net.audit``."""

    @pytest.fixture
    def world(self):
        net = Network(latency=0.001)
        realm = Realm(net, "AUDIT.REALM")
        realm.add_user("jis", "jis-pw")
        service, _ = realm.add_service("rlogin", "priam")
        return net, realm, service

    def test_kdc_success_and_failure(self, world):
        from repro.core.errors import KerberosError

        net, realm, service = world
        ws = realm.workstation()
        ws.client.kinit("jis", "jis-pw")
        with pytest.raises(KerberosError):
            realm.workstation().client.kinit("mallory", "guess")
        (ok,) = net.audit.events("auth_success")
        (bad,) = net.audit.events("auth_failure")
        assert ok.principal == "jis@AUDIT.REALM"
        assert ok.host == realm.shards[0].master_host.name
        assert "KDC_PR_UNKNOWN" in bad.detail

    def test_replay_detected_is_context_less(self, world):
        from repro.threat.replayer import Replayer

        net, realm, service = world
        replayer = Replayer(net, match=lambda d: d.dst_port == 750)
        ws = realm.workstation()
        with net.tracer.span("login"):
            ws.client.kinit("jis", "jis-pw")
            ws.client.mk_req(service)
        replayer.replay(1)  # the captured TGS-REQ, byte-identical
        (event,) = net.audit.events("replay_detected")
        assert event.principal == "jis@AUDIT.REALM"
        # The attacker cannot forge the out-of-band trace context, so
        # the replay shows up with an empty trace ID — unlike the
        # legitimate exchanges, which all joined the login trace.
        assert event.trace_id == ""
        assert net.audit.events("auth_success")[0].trace_id == "req-000001"
