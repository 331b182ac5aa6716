"""What disabling a principal does — and does not — revoke.

The 1988 design has no ticket revocation: the KDC checks the database at
*issue* time only.  Disabling or deleting a principal stops new tickets
immediately, but outstanding tickets remain valid until they expire —
the flip side of the Section 8 lifetime tradeoff, demonstrated here so
operators of this library know exactly where the line is.
"""

import pytest

from repro.core import ErrorCode, KerberosError, krb_rd_req
from repro.database.schema import ATTR_DISABLED
from repro.netsim import Network
from repro.principal import Principal
from repro.realm import Realm

REALM = "ATHENA.MIT.EDU"


@pytest.fixture
def world():
    net = Network()
    realm = Realm(net, REALM)
    realm.add_user("jis", "jis-pw")
    service, key = realm.add_service("rlogin", "priam")
    ws = realm.workstation()
    return net, realm, service, key, ws


class TestDisabling:
    def test_disabled_user_cannot_get_new_tgt(self, world):
        net, realm, service, key, ws = world
        realm.shards[0].db.set_attributes(Principal("jis", "", REALM), ATTR_DISABLED)
        with pytest.raises(KerberosError) as err:
            ws.client.kinit("jis", "jis-pw")
        assert err.value.code == ErrorCode.KDC_PR_DISABLED

    def test_outstanding_tgt_still_buys_service_tickets(self, world):
        """Disabling does NOT invalidate the TGT already issued: the TGS
        trusts the ticket, not a fresh database check of the client."""
        net, realm, service, key, ws = world
        ws.client.kinit("jis", "jis-pw")
        realm.shards[0].db.set_attributes(Principal("jis", "", REALM), ATTR_DISABLED)
        cred = ws.client.get_credential(service)   # still works!
        assert cred is not None

    def test_outstanding_service_ticket_still_authenticates(self, world):
        net, realm, service, key, ws = world
        ws.client.kinit("jis", "jis-pw")
        request, _, _ = ws.client.mk_req(service)
        realm.shards[0].db.set_attributes(Principal("jis", "", REALM), ATTR_DISABLED)
        ctx = krb_rd_req(request, service, key, ws.host.address, net.clock.now())
        assert ctx.client.name == "jis"

    def test_expiry_is_the_only_revocation(self, world):
        """After the ticket lifetime passes, the disabled user is finally
        locked out everywhere."""
        net, realm, service, key, ws = world
        ws.client.kinit("jis", "jis-pw")
        realm.shards[0].db.set_attributes(Principal("jis", "", REALM), ATTR_DISABLED)
        net.clock.advance(9 * 3600.0)
        with pytest.raises(KerberosError):   # TGT expired, kinit refused
            ws.client.get_credential(service)
        with pytest.raises(KerberosError) as err:
            ws.client.kinit("jis", "jis-pw")
        assert err.value.code == ErrorCode.KDC_PR_DISABLED


class TestDeletion:
    def test_deleted_user_same_story(self, world):
        net, realm, service, key, ws = world
        ws.client.kinit("jis", "jis-pw")
        realm.shards[0].db.delete_principal(Principal("jis", "", REALM))
        # Outstanding TGT still works at the TGS...
        assert ws.client.get_credential(service) is not None
        # ...but a new login is impossible.
        ws2 = realm.workstation()
        with pytest.raises(KerberosError) as err:
            ws2.client.kinit("jis", "jis-pw")
        assert err.value.code == ErrorCode.KDC_PR_UNKNOWN


class TestServiceSideChecks:
    def test_tgs_checks_target_service_expiry(self, world):
        """The TGS does consult the database for the *target* service —
        an expired service entry stops new tickets for it."""
        net, realm, service, key, ws = world
        expired = Principal("old", "svc", REALM)
        realm.shards[0].db.add_principal(
            expired, key=realm.keygen.session_key(), expiration=10.0
        )
        net.clock.advance(100.0)
        ws.client.kinit("jis", "jis-pw")
        with pytest.raises(KerberosError) as err:
            ws.client.get_credential(expired)
        assert err.value.code == ErrorCode.KDC_SERVICE_EXPIRED

    def test_tgs_rejects_expired_tgt_server_side(self, world):
        """Craft a TGS request around an expired TGT (bypassing the
        client's own cache check): the server rejects it."""
        from repro.core import (
            MessageType,
            TgsRequest,
            build_authenticator,
            encode_message,
            expect_reply,
        )

        net, realm, service, key, ws = world
        tgt = ws.client.kinit("jis", "jis-pw", life=600.0)
        net.clock.advance(3600.0)
        now = ws.host.clock.now()
        request = TgsRequest(
            service=service,
            requested_life=600.0,
            timestamp=now,
            tgt_realm=REALM,
            tgt=tgt.ticket,
            authenticator=build_authenticator(
                ws.client.principal, ws.host.address, now, tgt.session_key
            ),
        )
        raw = ws.host.rpc(
            realm.shards[0].master_host.address, 750,
            encode_message(MessageType.TGS_REQ, request),
        )
        with pytest.raises(KerberosError) as err:
            expect_reply(raw, MessageType.TGS_REP)
        assert err.value.code == ErrorCode.RD_AP_EXP
