"""The KdcLocator protocol: one discovery path, three implementations.

``KerberosClient`` asks a per-realm locator for a failover-ordered
address list, and the locator is the constructor's only discovery
argument; the PR 9/10 second spellings are errors at the call site.
"""

import inspect

import pytest

from repro.apps.hesiod import HesiodLocator, HesiodServer
from repro.core import KerberosClient, KerberosServer, StaticLocator
from repro.core.locator import KdcLocator
from repro.netsim import IPAddress, Network
from repro.netsim.ports import HESIOD_PORT
from repro.realm import Realm, RealmTopology

REALM = "ATHENA.MIT.EDU"


class TestStaticLocator:
    def test_locate_preserves_failover_order(self):
        addrs = ["18.72.0.1", "18.72.0.2", "18.72.0.3"]
        locator = StaticLocator(addrs)
        assert locator.locate() == [IPAddress(a) for a in addrs]
        # The routing key is accepted and ignored: static lists serve
        # every principal from the same replica set.
        assert locator.locate("jis") == locator.locate(None)

    def test_set_addresses_repoints_in_place(self):
        locator = StaticLocator(["18.72.0.1"])
        locator.set_addresses(["18.72.0.9", "18.72.0.1"])
        assert locator.locate()[0] == IPAddress("18.72.0.9")

    def test_apply_referral_defaults_to_refresh(self):
        """The base-protocol fallback: any locator that cannot fold a
        referral in precisely at least drops its stale view."""

        class Spy(StaticLocator):
            refreshed = 0

            def refresh(self):
                self.refreshed += 1

        spy = Spy(["18.72.0.1"])
        KdcLocator.apply_referral(spy, object())
        assert spy.refreshed == 1


class TestHesiodLocator:
    def _realm_with_hesiod(self, net):
        realm = Realm(net, REALM, topology=RealmTopology(slaves_per_shard=1))
        hesiod = HesiodServer().attach(net.add_host("hesiod"))
        realm.attach_hesiod(hesiod)
        return realm, hesiod

    def test_resolves_and_caches_the_kerberos_record(self):
        net = Network()
        realm, hesiod = self._realm_with_hesiod(net)
        ws_host = net.add_host("ws-hes")
        locator = HesiodLocator(ws_host, hesiod.host.address, REALM)
        assert locator.locate() == realm.kdc_addresses()
        # Cached: a second locate is free (no new Hesiod datagrams).
        net.reset_stats()
        locator.locate()
        assert net.metrics.total("net.datagrams_total", port=HESIOD_PORT) == 0

    def test_refresh_sees_a_promotion(self):
        net = Network()
        realm, hesiod = self._realm_with_hesiod(net)
        ws_host = net.add_host("ws-hes")
        locator = HesiodLocator(ws_host, hesiod.host.address, REALM)
        old_first = locator.locate()[0]
        realm.promote_slave(0, demote_old=True)
        realm.repoint_clients()
        # Stale until told otherwise — then current.
        assert locator.locate()[0] == old_first
        locator.refresh()
        assert locator.locate()[0] == realm.master_host.address

    def test_login_through_a_hesiod_locator(self):
        net = Network()
        realm, hesiod = self._realm_with_hesiod(net)
        realm.add_user("jis", "jis-pw")
        ws = realm.workstation()
        ws.client.set_locator(
            REALM,
            HesiodLocator(ws.host, hesiod.host.address, REALM),
        )
        ws.client.kinit("jis", "jis-pw")
        assert ws.client.cache.tgt(REALM) is not None

    def test_absent_record_is_not_cached(self):
        """A workstation that asks before the realm publishes must find
        the record once it appears — only an answer is cached."""
        net = Network()
        realm = Realm(net, REALM)
        realm.add_user("jis", "jis-pw")
        hesiod = HesiodServer().attach(net.add_host("hesiod"))
        ws = realm.workstation()
        locator = HesiodLocator(ws.host, hesiod.host.address, REALM)
        ws.client.set_locator(REALM, locator)
        assert locator.locate() == []
        realm.attach_hesiod(hesiod)
        assert locator.locate() == realm.kdc_addresses()
        ws.client.kinit("jis", "jis-pw")
        # The miss and the answer each cost one query; kinit rode the cache.
        assert net.metrics.total("net.datagrams_total", port=HESIOD_PORT) == 2


#: (constructor, its parameter names, a removed spelling, what the error names)
CONSTRUCTORS = [
    pytest.param(
        KerberosClient,
        ["host", "realm", "locator", "default_life", "port", "retry_policy"],
        lambda net: KerberosClient(net.add_host("ws"), REALM, ["18.72.0.1"]),
        "StaticLocator",
        id="client-list-where-a-locator-belongs",
    ),
    pytest.param(
        Realm,
        ["net", "name", "master_password", "seed", "host_prefix", "topology"],
        lambda net: Realm(net, REALM, **{"n_slaves": 2}),
        "n_slaves",
        id="realm-unknown-keyword",
    ),
    pytest.param(
        KerberosServer,
        ["database", "keygen", "skew", "port", "queue", "shard"],
        lambda net: KerberosServer(None, None, **{"workers": 2}),
        "workers",
        id="kdc-unknown-keyword",
    ),
]


class TestDeprecationShims:
    """The one-release shims are gone: an old spelling is an error where
    it is written, never a silently dropped setting."""

    def test_client_requires_some_discovery(self):
        host = Network().add_host("ws-none")
        with pytest.raises(TypeError, match="locator"):
            KerberosClient(host, REALM)

    @pytest.mark.parametrize("cls, names, removed_spelling, complaint", CONSTRUCTORS)
    def test_constructor_signatures(self, cls, names, removed_spelling, complaint):
        assert list(inspect.signature(cls).parameters) == names
        with pytest.raises(TypeError, match=complaint):
            removed_spelling(Network())
