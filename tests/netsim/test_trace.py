"""Wire recorder tests: the Figure 9 lines of the wire plane."""

import pytest

from repro.netsim import Network
from repro.realm import Realm
from repro.obs.wire import WireRecorder, describe_payload

REALM = "ATHENA.MIT.EDU"


@pytest.fixture
def world():
    net = Network()
    realm = Realm(net, REALM)
    realm.add_user("jis", "jis-pw")
    service, key = realm.add_service("rlogin", "priam")
    return net, realm, service


class TestTracer:
    def test_figure9_trace_shape(self, world):
        net, realm, service = world
        tracer = WireRecorder(net)
        ws = realm.workstation()
        ws.client.kinit("jis", "jis-pw")
        ws.client.get_credential(service)
        text = tracer.format()
        # The trace reads like Figure 9.
        assert "AS-REQ" in text
        assert "AS-REP" in text
        assert "TGS-REQ" in text
        assert "TGS-REP" in text
        assert len(tracer) == 4

    def test_sealed_parts_stay_sealed(self, world):
        """The tracer sees what any observer sees — descriptions name
        sealed blobs by size only."""
        net, realm, service = world
        tracer = WireRecorder(net)
        ws = realm.workstation()
        tgt = ws.client.kinit("jis", "jis-pw")
        assert "sealed" in tracer.format()
        assert tgt.session_key.key_bytes.hex() not in tracer.format()

    def test_error_replies_described(self, world):
        net, realm, service = world
        tracer = WireRecorder(net)
        ws = realm.workstation()
        from repro.core import KerberosError

        with pytest.raises(KerberosError):
            ws.client.kinit("nobody", "x")
        assert "ERROR" in tracer.format()

    def test_clear_and_detach(self, world):
        net, realm, service = world
        tracer = WireRecorder(net)
        ws = realm.workstation()
        ws.client.kinit("jis", "jis-pw")
        tracer.clear()
        assert len(tracer) == 0
        tracer.detach()
        ws.client.get_credential(service)
        assert len(tracer) == 0

    def test_non_kerberos_ports_show_sizes(self):
        assert describe_payload(b"hello", 109) == "[5 bytes]"

    def test_undecodable_kerberos_payload(self):
        assert "bytes" in describe_payload(b"\xff\xff", 750)


class TestPayloadDirections:
    """Decoding triggers when *either* end is the Kerberos port."""

    @pytest.fixture
    def as_reply(self, world):
        net, realm, service = world
        captured = []
        net.add_tap(captured.append)
        ws = realm.workstation()
        ws.client.kinit("jis", "jis-pw")
        net.remove_tap(captured.append)
        # Second datagram: the KDC's reply, 750 -> ephemeral.
        return captured[1]

    def test_reply_decoded_with_source_port(self, as_reply):
        assert as_reply.src_port == 750
        described = describe_payload(
            as_reply.payload, as_reply.dst_port, as_reply.src_port
        )
        assert described.startswith("AS-REP")

    def test_reply_decoded_without_source_port_legacy(self, as_reply):
        # Older callers pass only the destination; replies to the
        # ephemeral port are still tried.
        assert describe_payload(
            as_reply.payload, as_reply.dst_port
        ).startswith("AS-REP")

    def test_known_src_port_suppresses_non_kerberos_guess(self):
        # With both ports known and neither the KDC's, no decode attempt.
        assert describe_payload(b"hello", 0, 109) == "[5 bytes]"

    def test_request_ids_on_trace_records(self, world):
        net, realm, service = world
        tracer = WireRecorder(net)
        ws = realm.workstation()
        with net.tracer.span("login"):
            ws.client.kinit("jis", "jis-pw")
        assert all(
            r.request_id == "req-000001" for r in tracer.records
        )
        assert "rid=req-000001" in tracer.format()
