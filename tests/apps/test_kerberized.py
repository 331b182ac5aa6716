"""The Kerberizing framework: sessions, protection levels, mutual auth."""

import pytest

from repro.apps.kerberized import (
    ChannelError,
    KerberizedChannel,
    KerberizedServer,
    Protection,
)
from repro.crypto import keycache
from repro.database.schema import PrincipalRecord
from repro.principal import Principal

from tests.apps.conftest import REALM

PORT = 5000


class EchoServer(KerberizedServer):
    """Test service: replies with who-said-what."""

    def handle(self, session, data: bytes) -> bytes:
        return f"{session.client.name}:".encode() + data


@pytest.fixture
def echo(world):
    service, _ = world.realm.add_service("echo", "echohost")
    host = world.net.add_host("echohost")
    server = EchoServer(
        service, world.realm.srvtab_for(service), PORT
    ).attach(host)
    return service, host, server


@pytest.fixture
def logged_in_ws(world):
    ws = world.workstation()
    ws.client.kinit("jis", "jis-pw")
    return ws


class TestSessions:
    def test_authenticated_call(self, world, echo, logged_in_ws):
        service, host, _ = echo
        channel = KerberizedChannel(
            logged_in_ws.client, service, host.address, PORT
        )
        assert channel.call(b"hello") == b"jis:hello"

    def test_unauthenticated_call_refused(self, world, echo, logged_in_ws):
        from repro.apps.kerberized import CallReply, CallRequest, _Kind

        service, host, _ = echo
        raw = logged_in_ws.host.rpc(
            host.address,
            PORT,
            bytes([int(_Kind.CALL)])
            + CallRequest(session_id=77, payload=b"x").to_bytes(),
        )
        assert not CallReply.from_bytes(raw).ok

    def test_no_tickets_no_session(self, world, echo):
        service, host, _ = echo
        ws = world.workstation()
        from repro.core.errors import KerberosError

        with pytest.raises(KerberosError):
            KerberizedChannel(ws.client, service, host.address, PORT)

    def test_session_closed(self, world, echo, logged_in_ws):
        service, host, server = echo
        channel = KerberizedChannel(
            logged_in_ws.client, service, host.address, PORT
        )
        channel.close()
        assert server.sessions == {}
        with pytest.raises(ChannelError):
            channel.call(b"x")

    def test_session_bound_to_address(self, world, echo, logged_in_ws):
        """Level-NONE still checks the network address on every call."""
        from repro.apps.kerberized import CallReply, CallRequest, _Kind
        from repro.netsim import Datagram

        service, host, server = echo
        channel = KerberizedChannel(
            logged_in_ws.client, service, host.address, PORT
        )
        # An attacker on another machine knows the session id (it is not
        # secret) and tries to use the session.
        attacker = world.net.add_host("attacker")
        raw = attacker.rpc(
            host.address,
            PORT,
            bytes([int(_Kind.CALL)])
            + CallRequest(
                session_id=channel.session_id, payload=b"evil"
            ).to_bytes(),
        )
        assert not CallReply.from_bytes(raw).ok

    def test_two_sessions_isolated(self, world, echo):
        service, host, _ = echo
        ws1, ws2 = world.workstation(), world.workstation()
        ws1.client.kinit("jis", "jis-pw")
        ws2.client.kinit("bcn", "bcn-pw")
        ch1 = KerberizedChannel(ws1.client, service, host.address, PORT)
        ch2 = KerberizedChannel(ws2.client, service, host.address, PORT)
        assert ch1.call(b"x") == b"jis:x"
        assert ch2.call(b"x") == b"bcn:x"


class TestProtectionLevels:
    @pytest.mark.parametrize(
        "protection", [Protection.NONE, Protection.SAFE, Protection.PRIVATE]
    )
    def test_round_trip_each_level(self, world, echo, logged_in_ws, protection):
        service, host, _ = echo
        channel = KerberizedChannel(
            logged_in_ws.client, service, host.address, PORT,
            protection=protection,
        )
        assert channel.call(b"payload") == b"jis:payload"

    def test_private_hides_content(self, world, echo, logged_in_ws):
        service, host, _ = echo
        channel = KerberizedChannel(
            logged_in_ws.client, service, host.address, PORT,
            protection=Protection.PRIVATE,
        )
        captured = []
        world.net.add_tap(lambda d: captured.append(d.payload))
        channel.call(b"TOP-SECRET-CONTENT")
        assert not any(b"TOP-SECRET-CONTENT" in p for p in captured)

    def test_none_level_content_visible(self, world, echo, logged_in_ws):
        """Level NONE trades privacy for speed — content is on the wire."""
        service, host, _ = echo
        channel = KerberizedChannel(
            logged_in_ws.client, service, host.address, PORT,
            protection=Protection.NONE,
        )
        captured = []
        world.net.add_tap(lambda d: captured.append(d.payload))
        channel.call(b"VISIBLE-CONTENT")
        assert any(b"VISIBLE-CONTENT" in p for p in captured)

    def test_safe_level_detects_tampering(self, world, echo, logged_in_ws):
        service, host, _ = echo
        channel = KerberizedChannel(
            logged_in_ws.client, service, host.address, PORT,
            protection=Protection.SAFE,
        )

        def corrupt(datagram):
            # Flip a bit inside the SAFE payload of CALL requests only.
            if datagram.dst_port == PORT and datagram.payload[0] == 2:
                payload = bytearray(datagram.payload)
                payload[12] ^= 0x01  # inside the safe message's data
                return type(datagram)(
                    src=datagram.src, src_port=datagram.src_port,
                    dst=datagram.dst, dst_port=datagram.dst_port,
                    payload=bytes(payload),
                )
            return datagram

        world.net.add_interceptor(corrupt)
        with pytest.raises(ChannelError, match="rejected"):
            channel.call(b"data")


class TestMutualAuth:
    def test_mutual_open_succeeds_with_real_server(
        self, world, echo, logged_in_ws
    ):
        service, host, _ = echo
        channel = KerberizedChannel(
            logged_in_ws.client, service, host.address, PORT, mutual=True
        )
        assert channel.call(b"x") == b"jis:x"

    def test_auth_failure_counted(self, world, echo):
        service, host, server = echo
        ws = world.workstation()
        ws.client.kinit("jis", "jis-pw")
        # Tamper every OPEN so authentication fails at the server.
        def corrupt(datagram):
            if datagram.dst_port == PORT:
                payload = bytearray(datagram.payload)
                if len(payload) > 50:
                    payload[30] ^= 0xFF
                return type(datagram)(
                    src=datagram.src, src_port=datagram.src_port,
                    dst=datagram.dst, dst_port=datagram.dst_port,
                    payload=bytes(payload),
                )
            return datagram

        world.net.add_interceptor(corrupt)
        with pytest.raises(Exception):
            KerberizedChannel(ws.client, service, host.address, PORT)
        world.net.remove_interceptor(corrupt)
        assert server.auth_failures >= 1


class TestSessionKeys:
    def test_schedule_cache_holds_principal_keys_only(self, world, echo, monkeypatch):
        """A whole Figure 9 session — kinit, two TGS exchanges, a
        mutual-auth PRIVATE channel, close, kdestroy — keeps each
        principal key's schedule in one holder: every key the KDC
        unsealed is the very object in the master key's unseal cache,
        the server's is its srvtab's own, and no process-wide schedule
        cache keeps a copy.  The unseal cache holds principal keys only:
        each session key was scheduled by the credential, ticket or
        session holding it, and went with it."""
        service, host, server = echo
        other, _ = world.realm.add_service("rcmd", "echohost")
        db = world.realm.shards[0].db
        master, srvtab = db.master_key, server.keys
        unsealed, served = [], []

        def unseal_keys(*args, real=master.unseal_keys):
            keys = real(*args)
            unsealed.extend(keys)
            return keys

        def key_for(*args, real=srvtab.key_for):
            served.append(real(*args))
            return served[-1]

        monkeypatch.setattr(master, "unseal_keys", unseal_keys)
        monkeypatch.setattr(srvtab, "key_for", key_for)
        ws = world.workstation()
        ws.client.kinit("jis", "jis-pw")
        channel = KerberizedChannel(
            ws.client, service, host.address, PORT,
            protection=Protection.PRIVATE, mutual=True,
        )
        assert channel.call(b"one") == b"jis:one"
        assert channel.call(b"two") == b"jis:two"
        ws.client.get_credential(other)
        channel.close()
        assert ws.client.kdestroy() == 3
        held = list(master._unseal_cache._data.values())
        assert unsealed and all(any(key is h for h in held) for key in unsealed)
        assert served and all(
            any(key is h for h in srvtab._keys.values()) for key in served
        )
        # The server's key and the KDC's copy of it are scheduled apart.
        assert served[0] == db.principal_key(service)
        assert served[0] is not db.principal_key(service)
        assert [
            name for name, value in vars(keycache).items()
            if isinstance(value, keycache._LruCache)
        ] == ["_s2k_cache"]
        monkeypatch.undo()
        principal_keys = {
            db.master_key.unseal_key(
                PrincipalRecord.from_bytes(db.store.get(name)).sealed_key
            ).key_bytes
            for name in db.list_principals()
        }
        assert {key.key_bytes for key in held} <= principal_keys
