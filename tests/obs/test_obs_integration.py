"""End-to-end observability: a full AS→TGS→AP flow yields one trace
whose spans and wire records correlate through a shared request ID."""

import json

import pytest

from repro.netsim import Network
from repro.obs import render_prometheus, write_json_snapshot
from repro.realm import Realm
from repro.obs.report import render_report
from repro.obs.wire import WireRecorder

REALM = "ATHENA.MIT.EDU"

pytestmark = pytest.mark.obs


@pytest.fixture
def world():
    net = Network(latency=0.001)
    realm = Realm(net, REALM)
    realm.add_user("jis", "jis-pw")
    service, key = realm.add_service("rlogin", "priam")
    return net, realm, service


def run_flow(net, realm, service):
    """One login + one service use, under a single root span."""
    ws = realm.workstation()
    with net.tracer.span("user.session", user="jis"):
        ws.client.kinit("jis", "jis-pw")
        ws.client.mk_req(service)
    return ws


class TestFigure9SpanTree:
    def test_single_flow_single_trace(self, world):
        net, realm, service = world
        run_flow(net, realm, service)
        rids = net.tracer.request_ids()
        assert len(rids) == 1

    def test_span_tree_shape(self, world):
        """Parent span with one child per exchange; each exchange holds
        its two wire legs (request/reply transit) bracketing the KDC
        handler span the request triggered on the other host."""
        net, realm, service = world
        run_flow(net, realm, service)
        (root,) = net.tracer.roots()
        assert root.name == "user.session"
        children = net.tracer.children(root)
        assert [s.name for s in children] == [
            "client.as_exchange", "client.tgs_exchange", "client.ap_request",
        ]
        as_span, tgs_span, _ = children
        assert [s.name for s in net.tracer.children(as_span)] == [
            "net.transit", "kdc.as", "net.transit",
        ]
        assert [s.name for s in net.tracer.children(tgs_span)] == [
            "net.transit", "kdc.tgs", "net.transit",
        ]
        legs = [
            s.attrs["leg"]
            for s in net.tracer.children(as_span)
            if s.name == "net.transit"
        ]
        assert legs == ["request", "reply"]

    def test_trace_spans_three_hosts(self, world):
        """The acceptance shape: one chaos-free Figure 9 flow is a single
        trace whose spans cover client, KDC, and service hosts."""
        from repro.apps.kerberized import KerberizedChannel, KerberizedServer

        net, realm, service = world

        class Echo(KerberizedServer):
            def handle(self, session, data):
                return data

        app_host = net.add_host("priam")
        Echo(service, realm.srvtab_for(service), 5000).attach(app_host)
        ws = realm.workstation()
        with net.tracer.span("user.session", user="jis"):
            ws.client.kinit("jis", "jis-pw")
            channel = KerberizedChannel(
                ws.client, service, app_host.address, 5000
            )
            channel.call(b"ls")
            channel.close()
        (rid,) = net.tracer.request_ids()
        hosts = net.tracer.hosts(rid)
        assert len(hosts) >= 3
        assert ws.host.name in hosts
        assert realm.shards[0].master_host.name in hosts
        assert "priam" in hosts

    def test_spans_time_on_the_sim_clock(self, world):
        net, realm, service = world
        run_flow(net, realm, service)
        (root,) = net.tracer.roots()
        # Four one-way trips at 1ms latency happened under the root span.
        assert root.duration == pytest.approx(0.004)
        for span in net.tracer.by_request(root.request_id):
            assert span.finished
            assert root.start <= span.start <= span.end <= root.end

    def test_wire_records_carry_the_request_id(self, world):
        net, realm, service = world
        wire = WireRecorder(net)
        run_flow(net, realm, service)
        (rid,) = net.tracer.request_ids()
        tagged = wire.for_request(rid)
        assert len(tagged) == 4  # AS-REQ, AS-REP, TGS-REQ, TGS-REP
        text = "\n".join(r.format() for r in tagged)
        assert "AS-REQ" in text and "TGS-REP" in text
        assert f"rid={rid}" in text

    def test_correlated_report_merges_both_views(self, world):
        net, realm, service = world
        wire = WireRecorder(net)
        run_flow(net, realm, service)
        # Uninstrumented traffic (no span open) lands in the orphan
        # section.
        plain = net.add_host("printer")
        plain.bind(9100, lambda d: b"ok")
        realm.shards[0].master_host.rpc(plain.address, 9100, b"lpr")
        report = render_report(tracer=net.tracer, wire=wire)
        assert "user.session" in report
        assert "kdc.as" in report
        assert "AS-REQ" in report
        assert "(no active span)" in report


class TestMetricsEndToEnd:
    def test_kdc_and_network_counters(self, world):
        net, realm, service = world
        run_flow(net, realm, service)
        m = net.metrics
        assert m.total("kdc.requests_total", kind="as") == 1
        assert m.total("kdc.requests_total", kind="tgs") == 1
        assert m.total("kdc.outcomes_total", code="OK") == 2
        # Requests hit port 750; replies return to the ephemeral port.
        assert m.total("net.datagrams_total", port="750") == 2
        assert m.total("net.datagrams_total") == 4
        assert m.total("replay.checks_total", result="fresh") >= 1

    def test_error_outcome_labelled_by_code(self, world):
        net, realm, service = world
        ws = realm.workstation()
        from repro.core import KerberosError

        with pytest.raises(KerberosError):
            ws.client.kinit("nobody", "x")
        m = net.metrics
        assert m.total("kdc.outcomes_total", kind="as", code="OK") == 0
        assert m.total("kdc.requests_total", kind="as") == 1
        # Exactly one non-OK outcome, labelled with the error code name.
        assert m.total("kdc.outcomes_total", kind="as") == 1
        assert realm.shards[0].kdc.errors == 1

    def test_exchange_latency_histogram(self, world):
        net, realm, service = world
        run_flow(net, realm, service)
        hist = net.metrics.get("client.exchange_seconds", {"type": "as"})
        assert hist.count == 1
        # 2ms round trip falls in the 2ms bucket, not below.
        cum = dict(hist.cumulative_buckets())
        assert cum[0.001] == 0
        assert cum[0.002] == 1

    def test_prometheus_dump_covers_the_flow(self, world):
        net, realm, service = world
        run_flow(net, realm, service)
        text = render_prometheus(net.metrics)
        assert 'kdc_requests_total{kind="as",server=' in text
        assert "net_datagrams_total" in text
        assert "client_exchange_seconds_bucket" in text

    def test_json_snapshot_round_trips(self, world, tmp_path):
        net, realm, service = world
        run_flow(net, realm, service)
        path = tmp_path / "metrics.json"
        written = write_json_snapshot(
            net.metrics, path, now=net.clock.now(), extra={"logins": 1}
        )
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(json.dumps(written))
        assert loaded["clock"] == net.clock.now()
        assert loaded["bench"] == {"logins": 1}
        names = {e["name"] for e in loaded["counters"]}
        assert "kdc.outcomes_total" in names
        assert "net.datagrams_total" in names
