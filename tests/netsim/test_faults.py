"""The composable fault plane: loss, duplication, reordering, jitter,
partitions, crash/restart — all seeded, all observable."""

import pytest

from repro.netsim import (
    Duplicate,
    FaultError,
    Jitter,
    Loss,
    Match,
    Network,
    Partition,
    Reorder,
    Unreachable,
)


def world(seed=0, **kwargs):
    net = Network(seed=seed, **kwargs)
    server = net.add_host("server")
    client = net.add_host("client")
    log = []
    server.bind(7, lambda d: log.append(d.payload) or b"ok:" + d.payload)
    return net, server, client, log


class TestMatch:
    def test_port_scoping(self):
        net, server, client, log = world()
        server.bind(8, lambda d: b"other")
        net.faults.add(Loss(1.0, Match.build(port=7)))
        with pytest.raises(Unreachable):
            client.rpc(server.address, 7, b"x")
        assert client.rpc(server.address, 8, b"y") == b"other"

    def test_src_port_targets_the_reply_leg(self):
        """Dropping only replies from port 7: the server processes every
        request, the client never hears back."""
        net, server, client, log = world()
        net.faults.add(Loss(1.0, Match.build(src_port=7)))
        with pytest.raises(Unreachable):
            client.rpc(server.address, 7, b"x")
        assert log == [b"x"]  # request arrived; the reply was eaten

    def test_address_scoping(self):
        net, server, client, log = world()
        bystander = net.add_host("bystander")
        net.faults.add(Loss(1.0, Match.build(src=client.address)))
        with pytest.raises(Unreachable):
            client.rpc(server.address, 7, b"x")
        assert bystander.rpc(server.address, 7, b"y") == b"ok:y"

    def test_invalid_rates(self):
        with pytest.raises(FaultError):
            Loss(1.5)
        with pytest.raises(FaultError):
            Duplicate(-0.1)
        with pytest.raises(FaultError):
            Jitter(0.5, 0.1)


class TestDuplicate:
    def test_handler_runs_twice_one_reply(self):
        net, server, client, log = world()
        net.faults.add(Duplicate(1.0, Match.build(port=7)))
        assert client.rpc(server.address, 7, b"x") == b"ok:x"
        assert log == [b"x", b"x"]
        assert net.metrics.total("net.duplicates_total") == 1
        assert net.metrics.total("faults.injected_total", kind="duplicate") == 1

    def test_replies_are_not_duplicated(self):
        """A duplicated RPC reply is invisible; the plane spends no
        draws on the reply leg."""
        net, server, client, log = world()
        net.faults.add(Duplicate(1.0))  # matches everything
        assert client.rpc(server.address, 7, b"x") == b"ok:x"
        # One duplicate (the request), not two.
        assert net.metrics.total("net.duplicates_total") == 1


class TestReorder:
    def test_hold_and_release_swaps_order(self):
        net, server, client, log = world()
        net.faults.add(Reorder(1.0, Match.build(port=7)))
        # First request is held: its sender sees silence.
        with pytest.raises(Unreachable):
            client.rpc(server.address, 7, b"first")
        # Second request releases the first — delivered late, after it.
        assert client.rpc(server.address, 7, b"second") == b"ok:second"
        assert log == [b"second", b"first"]
        assert net.metrics.total("net.reordered_total") == 1
        # Third passes clean (the one-slot buffer drained, and with
        # rate 1.0 it is held again).
        with pytest.raises(Unreachable):
            client.rpc(server.address, 7, b"third")

    def test_held_datagram_without_successor_is_lost(self):
        net, server, client, log = world()
        net.faults.add(Reorder(1.0, Match.build(port=7)))
        with pytest.raises(Unreachable):
            client.rpc(server.address, 7, b"only")
        assert log == []
        assert net.metrics.total("net.reordered_total") == 0


class TestJitter:
    def test_jitter_advances_clock_within_bounds(self):
        net, server, client, log = world(latency=0.001)
        net.faults.add(Jitter(0.01, 0.02))
        client.rpc(server.address, 7, b"x")
        # Two hops: 2x base latency, plus 2x jitter in [0.01, 0.02].
        elapsed = net.clock.now()
        assert 0.002 + 0.02 <= elapsed <= 0.002 + 0.04
        assert net.metrics.total("faults.injected_total", kind="jitter") == 2

    def test_jitter_is_deterministic_per_seed(self):
        def run():
            net, server, client, _ = world(seed=42)
            net.faults.add(Jitter(0.0, 0.05))
            client.rpc(server.address, 7, b"x")
            return net.clock.now()

        assert run() == run()


class TestPartition:
    def test_cuts_both_directions(self):
        net, server, client, log = world()
        rule = net.partition(["server"])
        with pytest.raises(Unreachable):
            client.rpc(server.address, 7, b"x")
        assert net.metrics.total("net.drops_total", reason="partition") >= 1
        net.heal(rule)
        assert client.rpc(server.address, 7, b"x") == b"ok:x"

    def test_two_sided_groups(self):
        net, server, client, log = world()
        third = net.add_host("third")
        net.partition([server.address], [client.address])
        # client <-> server is cut; third still reaches the server.
        with pytest.raises(Unreachable):
            client.rpc(server.address, 7, b"x")
        assert third.rpc(server.address, 7, b"y") == b"ok:y"

    def test_heal_all(self):
        net, server, client, log = world()
        net.partition(["server"])
        net.partition(["client"])
        net.heal()
        assert client.rpc(server.address, 7, b"x") == b"ok:x"

    def test_overlapping_groups_rejected(self):
        with pytest.raises(FaultError):
            Partition(["1.2.3.4"], ["1.2.3.4"])
        with pytest.raises(FaultError):
            Partition([])


class TestCrashRestart:
    def test_crash_then_scheduled_restart(self):
        net, server, client, log = world()
        net.crash_host("server", downtime=30.0)
        with pytest.raises(Unreachable):
            client.rpc(server.address, 7, b"x")
        net.runtime.run_for(31.0)
        assert client.rpc(server.address, 7, b"x") == b"ok:x"
        assert net.metrics.total("faults.injected_total", kind="crash") == 1
        assert net.metrics.total("faults.injected_total", kind="restart") == 1

    def test_crash_without_downtime_stays_down(self):
        net, server, client, log = world()
        net.crash_host("server")
        net.runtime.run_for(3600.0)
        with pytest.raises(Unreachable):
            client.rpc(server.address, 7, b"x")
        net.restart_host("server")
        assert client.rpc(server.address, 7, b"x") == b"ok:x"

    def test_invalid_downtime(self):
        net, *_ = world()
        with pytest.raises(ValueError):
            net.crash_host("server", downtime=0.0)


class TestLossRule:
    """The loss_rate constructor shim is gone; Loss rules are the API."""

    def test_shim_removed(self):
        with pytest.raises(TypeError):
            Network(loss_rate=0.25)
        assert not hasattr(Network(), "loss_rate")

    def test_rule_add_and_remove(self):
        net = Network()
        rule = net.faults.add(Loss(0.25))
        assert len(net.faults.rules("loss")) == 1
        net.faults.remove(rule)
        assert len(net.faults.rules("loss")) == 0

    def test_drops_counted_with_loss_reason(self):
        net, server, client, _ = world(seed=7)
        net.faults.add(Loss(0.999999))
        with pytest.raises(Unreachable):
            client.rpc(server.address, 7, b"x")
        assert net.metrics.total("net.drops_total", reason="loss") >= 1
        assert net.metrics.total("faults.injected_total", kind="loss") >= 1


class TestRulePause:
    def test_disabled_rule_is_inert(self):
        net, server, client, _ = world()
        rule = net.faults.add(Loss(1.0, Match.build(port=7)))
        rule.enabled = False
        assert client.rpc(server.address, 7, b"x") == b"ok:x"
        rule.enabled = True
        with pytest.raises(Unreachable):
            client.rpc(server.address, 7, b"x")
