"""The unified Service lifecycle: attach/detach and the hooks.

Every daemon in the realm (KDC, KDBM, kpropd, NFS, mountd, rlogind,
registration, SMS, Hesiod) now speaks one lifecycle.  These tests pin
the contract on a bare Service subclass, then spot-check the real
daemons — including the network fanning a crash out as ``on_detach``
and a restart as ``on_attach``.
"""

import pytest

from repro.core import KerberosServer
from repro.core.service import Service, ServiceError
from repro.crypto import KeyGenerator
from repro.database.admin_tools import kdb_init
from repro.netsim import Network
from repro.netsim.ports import KERBEROS_PORT
from repro.realm import Realm, RealmTopology

REALM = "ATHENA.MIT.EDU"


class Echo(Service):
    """A minimal two-port service that records its lifecycle."""

    def __init__(self, ports=(7, 9)):
        super().__init__()
        self._ports = ports
        self.events = []

    def ports(self):
        return {p: (lambda d: b"ok:%d" % d.dst_port) for p in self._ports}

    def on_attach(self):
        self.events.append("attach")

    def on_detach(self):
        self.events.append("detach")


class TestLifecycle:
    def test_attach_binds_all_ports_and_registers(self):
        net = Network()
        host = net.add_host("h")
        service = Echo()
        assert not service.attached
        assert service.attach(host) is service  # chains
        assert service.attached and service.host is host
        assert service in host.services
        client = net.add_host("c")
        assert client.rpc(host.address, 7, b"") == b"ok:7"
        assert client.rpc(host.address, 9, b"") == b"ok:9"
        assert service.events == ["attach"]

    def test_attach_hands_over_the_networks_observability(self):
        """Set before ``on_attach`` runs, so no daemon wires its own."""
        net = Network()
        seen = []

        class Probe(Echo):
            def on_attach(self):
                seen.append((self.metrics, self.tracer, self.audit))

        Probe().attach(net.add_host("h"))
        assert seen == [(net.metrics, net.tracer, net.audit)]

    def test_detach_unbinds_and_unregisters(self):
        net = Network()
        host = net.add_host("h")
        service = Echo().attach(host)
        service.detach()
        assert not service.attached
        assert service not in host.services
        assert host.handler_for(7) is None
        assert service.events == ["attach", "detach"]

    def test_double_attach_rejected(self):
        net = Network()
        service = Echo().attach(net.add_host("a"))
        with pytest.raises(ServiceError):
            service.attach(net.add_host("b"))

    def test_detach_while_detached_rejected(self):
        with pytest.raises(ServiceError):
            Echo().detach()

    def test_port_collision_rolls_back_cleanly(self):
        """If any declared port is taken, attach binds *nothing* — the
        ports bound before the collision are released again."""
        net = Network()
        host = net.add_host("h")
        host.bind(9, lambda d: b"squatter")
        service = Echo()
        with pytest.raises(ServiceError):
            service.attach(host)
        assert not service.attached
        assert host.handler_for(7) is None  # rolled back
        assert host.handler_for(9) is not None  # the squatter survives
        assert service not in host.services

    def test_reattach_after_detach(self):
        net = Network()
        a, b = net.add_host("a"), net.add_host("b")
        service = Echo().attach(a)
        service.detach()
        service.attach(b)
        client = net.add_host("c")
        assert client.rpc(b.address, 7, b"") == b"ok:7"

    def test_constructor_host_shim_auto_attaches(self):
        """The one-release deprecation shim: passing a host to the
        constructor still attaches, the pre-Service way."""
        net = Network()
        host = net.add_host("h")
        service = Echo().attach(host)
        assert service.attached and service.events == ["attach"]


class TestCrashRestartFanout:
    def test_set_down_and_up_drive_the_hooks(self):
        net = Network()
        host = net.add_host("h")
        service = Echo().attach(host)
        net.set_down("h")
        net.set_up("h")
        assert service.events == ["attach", "detach", "attach"]

    def test_crash_host_with_downtime_restarts_on_schedule(self):
        net = Network()
        host = net.add_host("h")
        service = Echo().attach(host)
        net.crash_host("h", downtime=30.0)
        assert service.events == ["attach", "detach"]
        net.runtime.run_for(31.0)
        assert service.events == ["attach", "detach", "attach"]

    def test_all_services_on_the_host_hear_the_crash(self):
        net = Network()
        host = net.add_host("h")
        a, b = Echo(ports=(7,)).attach(host), Echo(ports=(9,)).attach(host)
        net.set_down("h")
        assert a.events[-1] == "detach" and b.events[-1] == "detach"


class TestRealDaemons:
    def test_kdc_constructs_detached_then_attaches(self):
        gen = KeyGenerator(seed=b"svc")
        db = kdb_init(REALM, "mpw", gen)
        net = Network()
        host = net.add_host("kerberos")
        kdc = KerberosServer(db, keygen=gen.fork(b"kdc"))
        assert not kdc.attached
        kdc.attach(host)
        assert host.handler_for(KERBEROS_PORT) is not None
        kdc.detach()
        assert host.handler_for(KERBEROS_PORT) is None

    def test_kdc_requires_a_keygen(self):
        gen = KeyGenerator(seed=b"svc")
        db = kdb_init(REALM, "mpw", gen)
        with pytest.raises(TypeError, match="keygen"):
            KerberosServer(db)

    def test_realm_hosts_enumerate_their_services(self):
        """The master runs the KDC, the KDBM and the range receiver;
        slaves run a KDC and a kpropd — visible through the one Service
        registry."""
        net = Network()
        realm = Realm(net, REALM, topology=RealmTopology(slaves_per_shard=1))
        master_kinds = {type(s).__name__ for s in realm.shards[0].master_host.services}
        assert master_kinds == {"KerberosServer", "KdbmServer", "RangeReceiver"}
        slave = realm.shards[0].slaves[0]
        slave_kinds = {type(s).__name__ for s in slave.host.services}
        assert slave_kinds == {"KerberosServer", "Kpropd"}

    def test_client_fails_over_past_a_detached_kdc(self):
        """Maintenance, not a crash: the master's KDC is detached while
        the host stays up.  Port-unreachable is as failover-worthy as a
        dead host — logins ride over to the slave."""
        net = Network()
        realm = Realm(net, REALM, topology=RealmTopology(slaves_per_shard=1))
        site = realm.shards[0]
        realm.add_user("jis", "jis-pw")
        realm.propagate()
        site.kdc.detach()
        ws = realm.workstation()
        assert ws.client.kinit("jis", "jis-pw") is not None
        assert net.metrics.total("kdc.failovers_total") == 1
        site.kdc.attach(site.master_host)  # maintenance over
        ws2 = realm.workstation()
        assert ws2.client.kinit("jis", "jis-pw") is not None
        assert net.metrics.total("kdc.failovers_total") == 1  # no new one

    def test_rlogind_serves_both_its_ports(self):
        from repro.apps.rlogin import RSHD_LEGACY_PORT, RloginServer
        from repro.netsim.ports import KSHELL_PORT

        net = Network()
        realm = Realm(net, REALM)
        rcmd, _ = realm.add_service("rcmd", "priam")
        priam = net.add_host("priam")
        rlogind = RloginServer(rcmd, realm.srvtab_for(rcmd)).attach(priam)
        assert priam.handler_for(KSHELL_PORT) is not None
        assert priam.handler_for(RSHD_LEGACY_PORT) is not None
        assert rlogind in priam.services
