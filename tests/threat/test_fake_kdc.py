"""A masquerading KDC (the ultimate server impostor).

The paper: "The security of Kerberos relies on the security of several
authentication servers" — so what happens when a client is pointed at a
*fake* one?  The design's answer: a fake KDC cannot produce anything the
client will accept, because every useful reply is sealed in a key the
impostor lacks (the user's, or a TGT session key).  The attack degrades
to denial of service plus an offline-guessing oracle no better than
passive wiretapping.
"""

import pytest

from repro.core import (
    ErrorCode,
    KdcReply,
    KdcReplyBody,
    KerberosClient,
    KerberosError,
    MessageType,
    Principal,
    StaticLocator,
    encode_message,
    tgs_principal,
)
from repro.crypto import KeyGenerator
from repro.netsim import Network
from repro.realm import Realm

REALM = "ATHENA.MIT.EDU"


class FakeKdc:
    """Binds the Kerberos port and fabricates replies with made-up keys."""

    def __init__(self, host):
        self.host = host
        self.gen = KeyGenerator(seed=b"fake-kdc")
        self.requests_seen = 0
        host.bind(750, self._handle)

    def _handle(self, datagram) -> bytes:
        self.requests_seen += 1
        from repro.core.messages import decode_message

        try:
            mtype, request = decode_message(datagram.payload)
        except KerberosError:
            return b""
        # Fabricate a structurally perfect reply — sealed with a key the
        # impostor invented, since it does not know the user's key.
        fake_key = self.gen.session_key()
        body = KdcReplyBody(
            session_key=self.gen.session_key().key_bytes,
            server=tgs_principal(REALM),
            issue_time=self.host.clock.now(),
            life=8 * 3600.0,
            kvno=1,
            request_timestamp=getattr(request, "timestamp", 0.0),
            ticket=b"\x00" * 120,
        )
        reply = KdcReply.build(request.client, body, fake_key)
        return encode_message(MessageType.AS_REP, reply)


@pytest.fixture
def world():
    net = Network()
    realm = Realm(net, REALM)
    realm.add_user("jis", "jis-pw")
    fake_host = net.add_host("fake-kdc")
    fake = FakeKdc(fake_host)
    return net, realm, fake_host, fake


class TestFakeKdc:
    def test_client_rejects_fabricated_as_reply(self, world):
        """The reply will not decrypt with the password-derived key: to
        the user it is indistinguishable from a typo'd password — and
        crucially, no secret left the workstation."""
        net, realm, fake_host, fake = world
        ws = net.add_host("victim-ws")
        client = KerberosClient(ws, REALM, StaticLocator([fake_host.address]))
        with pytest.raises(KerberosError) as err:
            client.kinit("jis", "jis-pw")
        assert err.value.code == ErrorCode.INTK_BADPW
        assert fake.requests_seen >= 1

    def test_no_credentials_cached_after_fake_exchange(self, world):
        net, realm, fake_host, fake = world
        ws = net.add_host("victim-ws")
        client = KerberosClient(ws, REALM, StaticLocator([fake_host.address]))
        with pytest.raises(KerberosError):
            client.kinit("jis", "jis-pw")
        assert client.klist() == []
        assert client.principal is None

    def test_failover_past_the_impostor(self, world):
        """A client configured with the real KDC later in its list is
        not rescued automatically — the fake answered, so no failover
        triggers.  (Failover is for dead hosts, not lying ones; DNS/
        configuration integrity is out of the protocol's scope.)"""
        net, realm, fake_host, fake = world
        ws = net.add_host("victim-ws")
        client = KerberosClient(
            ws, REALM,
            StaticLocator([fake_host.address, realm.shards[0].master_host.address]),
        )
        with pytest.raises(KerberosError):
            client.kinit("jis", "jis-pw")
        # Pointed at the real KDC, the same client works immediately.
        client2 = KerberosClient(
            ws, REALM, StaticLocator([realm.shards[0].master_host.address])
        )
        assert client2.kinit("jis", "jis-pw") is not None

    def test_fake_kdc_learns_nothing_it_could_not_sniff(self, world):
        """Everything the impostor receives is cleartext request fields —
        names and lifetimes — already visible to any wiretap."""
        net, realm, fake_host, fake = world
        captured = []

        original = fake._handle

        def capture(datagram):
            captured.append(datagram.payload)
            return original(datagram)

        fake_host.unbind(750)
        fake_host.bind(750, capture)
        ws = net.add_host("victim-ws")
        client = KerberosClient(ws, REALM, StaticLocator([fake_host.address]))
        with pytest.raises(KerberosError):
            client.kinit("jis", "jis-pw")
        from repro.crypto import string_to_key

        for payload in captured:
            assert b"jis-pw" not in payload
            assert string_to_key("jis-pw").key_bytes not in payload
