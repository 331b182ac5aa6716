"""Network simulation: delivery, failures, attackers, statistics."""

import pytest

from repro.netsim import (
    Datagram,
    FaultError,
    IPAddress,
    Loss,
    Network,
    NoSuchService,
    SimClock,
    Unreachable,
)


def echo_upper(datagram):
    return datagram.payload.upper()


@pytest.fixture
def net():
    return Network()


@pytest.fixture
def pair(net):
    client = net.add_host("ws1")
    server = net.add_host("srv1")
    server.bind(100, echo_upper)
    return client, server


class TestTopology:
    def test_auto_addresses_unique(self, net):
        hosts = [net.add_host(f"h{i}") for i in range(300)]
        assert len({h.address for h in hosts}) == 300

    def test_explicit_address(self, net):
        h = net.add_host("priam", address="18.72.0.5")
        assert h.address == IPAddress("18.72.0.5")

    def test_duplicate_name_rejected(self, net):
        net.add_host("ws1")
        with pytest.raises(ValueError):
            net.add_host("ws1")

    def test_duplicate_address_rejected(self, net):
        net.add_host("a", address="1.1.1.1")
        with pytest.raises(ValueError):
            net.add_host("b", address="1.1.1.1")

    def test_lookup_by_name_and_address(self, net):
        h = net.add_host("priam", address="18.72.0.5")
        assert net.host("priam") is h
        assert net.host_by_address("18.72.0.5") is h

    def test_unknown_lookups(self, net):
        with pytest.raises(KeyError):
            net.host("nope")
        with pytest.raises(KeyError):
            net.host_by_address("9.9.9.9")

    def test_hosts_listing(self, net):
        net.add_host("a")
        net.add_host("b")
        assert {h.name for h in net.hosts()} == {"a", "b"}

    def test_host_clock_skew(self, net):
        h = net.add_host("skewed", clock_skew=120.0)
        assert h.clock.now() == 120.0


class TestRpc:
    def test_round_trip(self, pair):
        client, server = pair
        assert client.rpc(server.address, 100, b"hello") == b"HELLO"

    def test_rpc_by_address_string(self, net):
        server = net.add_host("s", address="10.0.0.1")
        server.bind(7, lambda d: b"ok")
        client = net.add_host("c")
        assert client.rpc("10.0.0.1", 7, b"x") == b"ok"

    def test_unknown_host_unreachable(self, pair):
        client, _ = pair
        with pytest.raises(Unreachable):
            client.rpc("99.99.99.99", 100, b"x")

    def test_down_host_unreachable(self, net, pair):
        client, server = pair
        net.set_down("srv1")
        with pytest.raises(Unreachable):
            client.rpc(server.address, 100, b"x")
        net.set_up("srv1")
        assert client.rpc(server.address, 100, b"x") == b"X"

    def test_down_source_cannot_send(self, net, pair):
        client, server = pair
        net.set_down("ws1")
        with pytest.raises(Unreachable):
            client.rpc(server.address, 100, b"x")

    def test_unbound_port(self, pair):
        client, server = pair
        with pytest.raises(NoSuchService):
            client.rpc(server.address, 42, b"x")

    def test_handler_sees_source_address(self, net):
        seen = {}

        def handler(datagram):
            seen["src"] = datagram.src
            return b""

        server = net.add_host("s")
        server.bind(1, handler)
        client = net.add_host("c")
        client.rpc(server.address, 1, b"")
        assert seen["src"] == client.address

    def test_double_bind_rejected(self, net):
        h = net.add_host("s")
        h.bind(1, echo_upper)
        with pytest.raises(ValueError):
            h.bind(1, echo_upper)

    def test_unbind(self, net, pair):
        client, server = pair
        assert server.unbind(100) is True
        with pytest.raises(NoSuchService):
            client.rpc(server.address, 100, b"x")

    def test_unbind_free_port_reports_false(self, pair):
        _, server = pair
        assert server.unbind(42) is False

    def test_rebind_replaces_handler(self, net, pair):
        client, server = pair
        displaced = server.rebind(100, lambda d: d.payload.lower())
        assert displaced is echo_upper
        assert client.rpc(server.address, 100, b"MiXeD") == b"mixed"

    def test_rebind_free_port_returns_none(self, net, pair):
        client, server = pair
        assert server.rebind(200, echo_upper) is None
        assert client.rpc(server.address, 200, b"x") == b"X"

    def test_one_way_send_no_error_when_down(self, net, pair):
        client, server = pair
        net.set_down("srv1")
        client.send(server.address, 100, b"lost")  # must not raise

    def test_one_way_send_delivers(self, net):
        inbox = []
        server = net.add_host("s")
        server.bind(5, lambda d: inbox.append(d.payload))
        client = net.add_host("c")
        client.send(server.address, 5, b"notice")
        assert inbox == [b"notice"]


class TestLatencyAndLoss:
    def test_latency_advances_clock(self):
        net = Network(latency=0.005)
        server = net.add_host("s")
        server.bind(1, lambda d: b"ok")
        client = net.add_host("c")
        client.rpc(server.address, 1, b"x")
        # Two hops: request and reply.
        assert net.clock.now() == pytest.approx(0.010)

    def test_loss_causes_unreachable(self):
        net = Network(seed=7)
        net.faults.add(Loss(0.999999))
        server = net.add_host("s")
        server.bind(1, lambda d: b"ok")
        client = net.add_host("c")
        with pytest.raises(Unreachable):
            client.rpc(server.address, 1, b"x")

    def test_no_loss_rule_reliable(self):
        net = Network()
        server = net.add_host("s")
        server.bind(1, lambda d: b"ok")
        client = net.add_host("c")
        for _ in range(50):
            assert client.rpc(server.address, 1, b"x") == b"ok"

    def test_invalid_loss_rate(self):
        with pytest.raises(FaultError):
            Loss(1.5)

    def test_loss_is_deterministic_per_seed(self):
        def run(seed):
            net = Network(seed=seed)
            net.faults.add(Loss(0.5))
            server = net.add_host("s")
            server.bind(1, lambda d: b"ok")
            client = net.add_host("c")
            outcomes = []
            for _ in range(20):
                try:
                    client.rpc(server.address, 1, b"x")
                    outcomes.append(True)
                except Unreachable:
                    outcomes.append(False)
            return outcomes

        assert run(3) == run(3)


class TestAttackers:
    def test_tap_sees_both_directions(self, net, pair):
        client, server = pair
        captured = []
        net.add_tap(captured.append)
        client.rpc(server.address, 100, b"secret")
        payloads = [d.payload for d in captured]
        assert payloads == [b"secret", b"SECRET"]

    def test_tap_removal(self, net, pair):
        client, server = pair
        captured = []
        net.add_tap(captured.append)
        net.remove_tap(captured.append.__self__.append if False else captured.append)
        client.rpc(server.address, 100, b"x")
        assert captured == []

    def test_interceptor_rewrites(self, net, pair):
        client, server = pair

        def flip(datagram):
            if datagram.dst_port == 100:
                return Datagram(
                    src=datagram.src,
                    src_port=datagram.src_port,
                    dst=datagram.dst,
                    dst_port=datagram.dst_port,
                    payload=b"tampered",
                )
            return datagram

        net.add_interceptor(flip)
        assert client.rpc(server.address, 100, b"real") == b"TAMPERED"

    def test_interceptor_drops(self, net, pair):
        client, server = pair
        net.add_interceptor(lambda d: None)
        with pytest.raises(Unreachable):
            client.rpc(server.address, 100, b"x")

    def test_interceptor_removal(self, net, pair):
        client, server = pair
        drop = lambda d: None
        net.add_interceptor(drop)
        net.remove_interceptor(drop)
        assert client.rpc(server.address, 100, b"x") == b"X"

    def test_inject_forged_source(self, net, pair):
        """Source-address forgery, as in the NFS appendix discussion."""
        _, server = pair
        forged = Datagram(
            src=IPAddress("66.66.66.66"),  # not a registered host
            src_port=0,
            dst=server.address,
            dst_port=100,
            payload=b"spoof",
        )
        assert net.inject(forged) == b"SPOOF"


class TestStats:
    def test_counts_messages_and_bytes(self, net, pair):
        client, server = pair
        client.rpc(server.address, 100, b"abcd")
        assert net.metrics.total("net.datagrams_total") == 2  # request + reply
        assert net.metrics.total("net.bytes_total") == 8  # 4 out, 4 back
        assert net.metrics.total("net.datagrams_total", port="100") == 1

    def test_reset(self, net, pair):
        client, server = pair
        client.rpc(server.address, 100, b"x")
        net.reset_stats()
        assert net.metrics.total("net.datagrams_total") == 0

    def test_reply_port_counted_separately(self, net, pair):
        client, server = pair
        client.rpc(server.address, 100, b"x")
        # The reply lands on the client's ephemeral port.
        assert net.metrics.total("net.datagrams_total", port="0") == 1

    def test_stats_backed_by_registry(self, net, pair):
        """The registry is the single source of truth: the unfiltered
        total is exactly the sum of the per-port series."""
        client, server = pair
        client.rpc(server.address, 100, b"abcd")
        for name, total in (("net.datagrams_total", 2), ("net.bytes_total", 8)):
            per_port = [net.metrics.total(name, port=p) for p in (100, 0)]
            assert sum(per_port) == net.metrics.total(name) == total

    def test_drops_counted_by_reason(self, net, pair):
        client, server = pair
        net.add_interceptor(lambda d: None)
        with pytest.raises(Unreachable):
            client.rpc(server.address, 100, b"x")
        assert net.metrics.total("net.drops_total", reason="intercepted") == 1
