"""Replay cache vs the fault plane's duplicated datagrams.

Section 4.3: "a request received with the same ticket and time stamp as
one already received can be discarded."  A duplicated UDP datagram is
byte-identical — ticket, authenticator, timestamp and all — so the
server must reject exactly the second copy, silently, while the
original request succeeds from the client's point of view.
"""

import pytest

from repro.core import KerberosClient, KerberosServer, Principal, StaticLocator
from repro.core.replay import ReplayCache
from repro.crypto import KeyGenerator
from repro.database.admin_tools import kdb_init, register_service
from repro.netsim import Duplicate, Match, Network
from repro.netsim.ports import KERBEROS_PORT

REALM = "ATHENA.MIT.EDU"


@pytest.fixture
def world():
    net = Network(seed=11)
    gen = KeyGenerator(seed=b"dup")
    db = kdb_init(REALM, "mpw", gen)
    db.add_principal(Principal("jis", "", REALM), password="pw")
    service = Principal("rlogin", "priam", REALM)
    register_service(db, service, gen)
    kdc_host = net.add_host("kerberos")
    kdc = KerberosServer(db, gen.fork(b"kdc")).attach(kdc_host)
    ws = net.add_host("ws")
    client = KerberosClient(ws, REALM, StaticLocator([kdc_host.address]))
    return net, kdc, client, service


class TestDuplicatedKdcTraffic:
    def test_duplicated_tgs_rejected_exactly_once(self, world):
        """Every KDC-bound datagram is delivered twice.  The duplicate
        AS request is harmless (the AS keeps no replay state); the
        duplicate TGS request — same authenticator — must be rejected
        exactly once, counted, and invisible to the client."""
        net, kdc, client, service = world
        net.faults.add(Duplicate(1.0, Match.build(port=KERBEROS_PORT)))

        client.kinit("jis", "pw")
        cred = client.get_credential(service)
        assert cred is not None

        # One AS + one TGS request, each delivered twice.
        assert net.metrics.total("net.duplicates_total") == 2
        assert net.metrics.total("kdc.requests_total", kind="as") == 2
        assert net.metrics.total("kdc.requests_total", kind="tgs") == 2
        # The replay cache saw the TGS authenticator twice: fresh once,
        # replay exactly once.
        assert net.metrics.total("replay.checks_total", result="fresh") == 1
        assert net.metrics.total("replay.checks_total", result="replay") == 1
        # The rejection surfaced as a server-side RD_AP_REPEAT outcome,
        # never as an error to the client.
        assert net.metrics.total(
            "kdc.outcomes_total", kind="tgs", code="RD_AP_REPEAT"
        ) == 1

    def test_every_duplicate_absorbed_over_many_exchanges(self, world):
        """N duplicated TGS exchanges -> N replay rejections, N successes."""
        net, kdc, client, service = world
        net.faults.add(Duplicate(1.0, Match.build(port=KERBEROS_PORT)))
        client.kinit("jis", "pw")
        n = 5
        for i in range(n):
            svc = Principal("rlogin", f"host{i}", REALM)
            register_service(kdc.db, svc, KeyGenerator(seed=b"svc%d" % i))
            assert client.get_credential(svc) is not None
        assert net.metrics.total("replay.checks_total", result="replay") == n
        assert net.metrics.total("replay.checks_total", result="fresh") == n


class TestCacheUnit:
    def test_exactly_once_rejection_is_counted(self):
        """The primitive itself: the same triple presented twice is
        rejected on the second presentation only, and the metrics agree."""
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
        cache = ReplayCache(metrics=metrics, labels={"server": "s"})
        assert cache.check_and_store("jis@A", 1, 100.0, now=100.0) is True
        assert cache.check_and_store("jis@A", 1, 100.0, now=100.0) is False
        assert cache.check_and_store("jis@A", 1, 100.0, now=100.0) is False
        assert metrics.total("replay.checks_total", result="fresh") == 1
        assert metrics.total("replay.checks_total", result="replay") == 2
