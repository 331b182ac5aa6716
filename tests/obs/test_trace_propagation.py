"""Trace propagation: out-of-band context on datagrams, transit legs,
queue-wait spans, frozen wire bytes, and deterministic export."""

import pytest

from repro.crypto import keycache
from repro.netsim import Datagram, IPAddress, Network, Unreachable
from repro.netsim.faults import Loss
from repro.obs import TraceContext, render_chrome_trace
from repro.obs.tracing import Tracer
from repro.realm import Realm, RealmTopology
from repro.runtime import WorkQueueConfig

pytestmark = pytest.mark.obs

REALM = "ATHENA.MIT.EDU"


@pytest.fixture
def net():
    return Network(latency=0.001)


@pytest.fixture
def pair(net):
    """A client host and a server whose handler joins the propagated
    trace — the minimal two-host propagation scenario."""
    server = net.add_host("server")
    client = net.add_host("client")

    def handler(datagram):
        with net.tracer.span("srv.handle", under=datagram.trace, host="server"):
            return b"ok:" + datagram.payload

    server.bind(7, handler)
    return client, server


class TestContextPropagation:
    def test_rpc_stamps_the_open_span_context(self, net, pair):
        client, server = pair
        with net.tracer.span("op", host="client") as root:
            client.rpc(server.address, 7, b"x")
        (handled,) = [s for s in net.tracer.spans if s.name == "srv.handle"]
        assert handled.request_id == root.request_id

    def test_wire_bytes_unchanged_by_tracing(self, net, pair):
        """The context is sim-side metadata: two datagrams with the same
        wire fields are equal (and hash alike) whatever they carry."""
        a = Datagram(IPAddress("18.0.0.1"), 1, IPAddress("18.0.0.2"), 7, b"x")
        b = Datagram(
            IPAddress("18.0.0.1"), 1, IPAddress("18.0.0.2"), 7, b"x",
            trace=TraceContext("req-000001", 5),
        )
        assert a == b
        assert hash(a) == hash(b)
        assert b.reply_with(b"y").trace == b.trace

    def test_untraced_send_carries_no_context(self, net, pair):
        client, server = pair
        client.rpc(server.address, 7, b"x")  # no span open
        (handled,) = [s for s in net.tracer.spans if s.name == "srv.handle"]
        # The handler still spans — under a fresh trace of its own, not
        # glued onto anything.
        assert handled.parent_id is None

    def test_untraced_arrival_does_not_join_the_pumping_caller(self, net):
        """A server that *sends while handling* an untraced request must
        not leak its own open span into an unrelated trace tree."""
        server = net.add_host("server")
        client = net.add_host("client")

        def handler(datagram):
            with net.tracer.span("srv.handle", under=datagram.trace):
                return b"ok"

        server.bind(7, handler)
        with net.tracer.span("client.unrelated") as unrelated:
            client.send(server.address, 7, b"fire-and-forget")
        net.runtime.run_until_idle()
        (handled,) = [s for s in net.tracer.spans if s.name == "srv.handle"]
        # send() under a span *does* propagate; handled joins that trace.
        assert handled.request_id == unrelated.request_id


class TestTransitSpans:
    def test_request_and_reply_legs_bracket_the_handler(self, net, pair):
        client, server = pair
        with net.tracer.span("op"):
            client.rpc(server.address, 7, b"x")
        legs = [s for s in net.tracer.spans if s.name == "net.transit"]
        assert [s.attrs["leg"] for s in legs] == ["request", "reply"]
        for leg in legs:
            assert leg.finished
            assert leg.duration == pytest.approx(0.001)

    def test_dropped_datagram_closes_transit_with_reason(self, net, pair):
        client, server = pair
        net.faults.add(Loss(1.0))
        with pytest.raises(Unreachable):
            with net.tracer.span("op"):
                client.rpc(server.address, 7, b"x")
        dropped = [
            s for s in net.tracer.spans
            if s.name == "net.transit" and "dropped" in s.attrs
        ]
        assert dropped and dropped[0].attrs["dropped"] == "loss"


class TestQueueWaitSpans:
    @pytest.fixture
    def queued_world(self):
        net = Network(latency=0.001, seed=7)
        queue = WorkQueueConfig(workers=1, batch_size=4)
        realm = Realm(net, REALM, topology=RealmTopology(kdc_queue=queue))
        realm.add_user("jis", "jis-pw")
        return net, realm

    def test_queue_wait_span_and_breakdown_attrs(self, queued_world):
        net, realm = queued_world
        ws = realm.workstation()
        with net.tracer.span("login") as root:
            ws.client.kinit("jis", "jis-pw")
        (wait,) = [s for s in net.tracer.spans if s.name == "kdc.queue.wait"]
        (kdc,) = [s for s in net.tracer.spans if s.name == "kdc.as"]
        assert wait.request_id == kdc.request_id == root.request_id
        assert wait.end <= kdc.start
        assert kdc.attrs["batch_size"] == 1
        assert kdc.attrs["queue_wait"] == pytest.approx(
            wait.end - wait.start
        )
        assert kdc.attrs["service_time"] > 0
        assert kdc.attrs["crypto_ops"] > 0
        hist = net.metrics.get(
            "kdc.queue.wait_seconds", {"server": realm.shards[0].master_host.name}
        )
        assert hist.count == 1
        # With every cache off each key is scheduled again, and each
        # lookup still counts: as many as the cold first login made.
        with keycache.caches_disabled(), net.tracer.span("login") as again:
            ws.client.kinit("jis", "jis-pw")
        (uncached,) = [
            s for s in net.tracer.by_request(again.request_id)
            if s.name == "kdc.as"
        ]
        assert uncached.attrs["crypto_ops"] == kdc.attrs["crypto_ops"]


class TestBounds:
    def test_span_overflow_drops_and_counts(self, net):
        tracer = net.tracer
        tracer.max_spans = 3
        for i in range(5):
            with tracer.span(f"op{i}"):
                pass
        assert len(tracer.spans) == 3
        assert net.metrics.total("trace.spans_dropped_total") == 2


class TestDeterministicExport:
    def test_same_seed_byte_identical_chrome_trace(self):
        def run():
            net = Network(latency=0.001, seed=11)
            realm = Realm(net, REALM)
            realm.add_user("jis", "jis-pw")
            service, _ = realm.add_service("rlogin", "priam")
            ws = realm.workstation()
            with net.tracer.span("user.session", user="jis"):
                ws.client.kinit("jis", "jis-pw")
                ws.client.mk_req(service)
            return render_chrome_trace(net.tracer)

        first, second = run(), run()
        assert first == second
        assert '"ph": "X"' in first
