"""Preauthentication (extension beyond the 1988 paper).

The paper's AS answers any request with material sealed under the named
user's key — which is also perfect offline-guessing material for an
attacker who merely *asks*.  Preauthentication (added to Kerberos soon
after the paper; standard in V5) requires the request itself to prove
knowledge of the key.  These tests cover the mechanism, the negotiation,
and what it does and does not fix.
"""

import pytest

from repro.core import ErrorCode, KerberosError
from repro.core.messages import (
    MessageType,
    PreauthAsRequest,
    build_preauth,
    encode_message,
    expect_reply,
)
from repro.principal import tgs_principal
from repro.crypto import KeyGenerator, string_to_key
from repro.database.schema import ATTR_REQUIRE_PREAUTH
from repro.netsim import Network
from repro.principal import Principal
from repro.realm import Realm
from repro.threat import Eavesdropper, active_as_probe

REALM = "ATHENA.MIT.EDU"


@pytest.fixture
def world():
    net = Network()
    realm = Realm(net, REALM)
    realm.add_user("open", "open-pw")                       # 1988 behaviour
    realm.shards[0].db.add_principal(                                 # hardened user
        Principal("careful", "", REALM),
        password="careful-pw",
        attributes=ATTR_REQUIRE_PREAUTH,
    )
    realm.add_service("rlogin", "priam")
    return net, realm


class TestNegotiation:
    def test_kinit_transparent_for_preauth_user(self, world):
        """The client negotiates automatically: kinit just works."""
        net, realm = world
        ws = realm.workstation()
        assert ws.client.kinit("careful", "careful-pw") is not None

    def test_kinit_unchanged_for_open_user(self, world):
        net, realm = world
        ws = realm.workstation()
        realm.net.reset_stats()
        ws.client.kinit("open", "open-pw")
        # No extra round trip.
        assert net.metrics.total("net.datagrams_total", port="750") == 1

    def test_preauth_costs_one_extra_round_trip(self, world):
        net, realm = world
        ws = realm.workstation()
        realm.net.reset_stats()
        ws.client.kinit("careful", "careful-pw")
        # Refusal + preauth retry.
        assert net.metrics.total("net.datagrams_total", port="750") == 2

    def test_wrong_password_now_fails_at_the_kdc(self, world):
        """With preauth, a wrong password is caught by the KDC
        (KDC_PREAUTH_FAILED) instead of failing silently on the
        workstation."""
        net, realm = world
        ws = realm.workstation()
        with pytest.raises(KerberosError) as err:
            ws.client.kinit("careful", "wrong-pw")
        assert err.value.code == ErrorCode.KDC_PREAUTH_FAILED

    def test_preauth_user_full_protocol(self, world):
        net, realm = world
        ws = realm.workstation()
        ws.client.kinit("careful", "careful-pw")
        service = Principal("rlogin", "priam", REALM)
        assert ws.client.get_credential(service) is not None


class TestKdcEnforcement:
    def test_plain_request_refused(self, world):
        net, realm = world
        attacker = net.add_host("prober")
        reply = active_as_probe(
            attacker, realm.shards[0].master_host.address,
            Principal("careful", "", REALM), REALM,
        )
        assert reply is None   # KDC_PREAUTH_REQUIRED

    def test_stale_preauth_refused(self, world):
        """A captured preauth blob replayed later fails the freshness
        check (its sealed timestamp no longer matches a fresh request,
        and an old request timestamp is outside the window)."""
        net, realm = world
        ws = realm.workstation()
        old_now = ws.host.clock.now()
        blob = build_preauth(string_to_key("careful-pw"), old_now)
        net.clock.advance(600.0)
        request = PreauthAsRequest(
            client=Principal("careful", "", REALM),
            service=tgs_principal(REALM),
            requested_life=3600.0,
            timestamp=old_now,               # matches the blob, but stale
            preauth=blob,
        )
        raw = ws.host.rpc(
            realm.shards[0].master_host.address, 750,
            encode_message(MessageType.PREAUTH_AS_REQ, request),
        )
        with pytest.raises(KerberosError) as err:
            expect_reply(raw, MessageType.AS_REP)
        assert err.value.code == ErrorCode.KDC_PREAUTH_FAILED

    def test_blob_for_different_timestamp_refused(self, world):
        net, realm = world
        ws = realm.workstation()
        now = ws.host.clock.now()
        request = PreauthAsRequest(
            client=Principal("careful", "", REALM),
            service=tgs_principal(REALM),
            requested_life=3600.0,
            timestamp=now,
            preauth=build_preauth(string_to_key("careful-pw"), now + 5.0),
        )
        raw = ws.host.rpc(
            realm.shards[0].master_host.address, 750,
            encode_message(MessageType.PREAUTH_AS_REQ, request),
        )
        with pytest.raises(KerberosError) as err:
            expect_reply(raw, MessageType.AS_REP)
        assert err.value.code == ErrorCode.KDC_PREAUTH_FAILED


class TestWhatPreauthFixes:
    def test_active_probe_blocked_for_preauth_user(self, world):
        """The headline: nobody can harvest guessing material for a
        preauth-protected user just by asking."""
        net, realm = world
        attacker = net.add_host("harvester")
        assert active_as_probe(
            attacker, realm.shards[0].master_host.address,
            Principal("careful", "", REALM), REALM,
        ) is None

    def test_active_probe_succeeds_against_1988_user(self, world):
        """...whereas the 1988 design hands it over: probe, then crack
        offline."""
        net, realm = world
        realm.add_user("victim", "password")    # a weak password
        attacker = net.add_host("harvester")
        eve = Eavesdropper(net)
        reply = active_as_probe(
            attacker, realm.shards[0].master_host.address,
            Principal("victim", "", REALM), REALM,
        )
        assert reply is not None
        guessed = eve.offline_password_guess(
            reply, ["123456", "password", "qwerty"]
        )
        assert guessed == "password"

    def test_passive_capture_still_works_against_preauth_user(self, world):
        """The honest limit: preauth closes the active probe only.  A
        wiretap on a real login still yields crackable material (the
        preauth blob itself and the reply are both keyed by the
        password)."""
        net, realm = world
        realm.shards[0].db.add_principal(
            Principal("weakling", "", REALM),
            password="password",
            attributes=ATTR_REQUIRE_PREAUTH,
        )
        eve = Eavesdropper(net)
        ws = realm.workstation()
        ws.client.kinit("weakling", "password")
        reply = eve.harvest_kdc_replies()[-1]
        assert eve.offline_password_guess(
            reply, ["123456", "password"]
        ) == "password"
