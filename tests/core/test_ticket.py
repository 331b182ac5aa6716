"""Ticket tests (paper Figure 3) — experiment F3."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ErrorCode, KerberosError, Principal, Ticket, seal_ticket, unseal_ticket
from repro.crypto import KeyGenerator, keycache
from repro.netsim import IPAddress

REALM = "ATHENA.MIT.EDU"
GEN = KeyGenerator(seed=b"ticket-tests")
SERVER_KEY = GEN.session_key()
SESSION_KEY = GEN.session_key()


def make_ticket(**overrides):
    values = dict(
        server=Principal("rlogin", "priam", REALM),
        client=Principal("jis", "", REALM),
        address=IPAddress("18.72.0.100").as_int,
        timestamp=1000.0,
        life=8 * 3600.0,
        session_key=SESSION_KEY.key_bytes,
    )
    values.update(overrides)
    return Ticket(**values)


class TestFigure3Fields:
    """The ticket contains exactly s, c, addr, timestamp, life, K_s,c."""

    def test_field_names_match_figure_3(self):
        assert [f.name for f in Ticket.FIELDS] == [
            "server",
            "client",
            "address",
            "timestamp",
            "life",
            "session_key",
        ]

    def test_round_trip_plaintext(self):
        t = make_ticket()
        assert Ticket.from_bytes(t.to_bytes()) == t

    def test_session_key_accessor(self):
        assert make_ticket().key == SESSION_KEY

    def test_session_key_scheduled_once_on_the_ticket(self):
        """The session key's schedule lives with its ticket: every access
        returns one object, and none touches a process-wide cache."""
        ticket = make_ticket()
        before = keycache.stats()
        key = ticket.key
        assert ticket.key is key
        assert keycache.stats() == before

    def test_client_address_accessor(self):
        assert make_ticket().client_address == IPAddress("18.72.0.100")


class TestSealing:
    def test_round_trip_sealed(self):
        blob = seal_ticket(make_ticket(), SERVER_KEY)
        assert unseal_ticket(blob, SERVER_KEY) == make_ticket()

    def test_sealed_ticket_is_opaque(self):
        """Encrypted in the server's key: the client (or a thief) sees
        neither names nor the session key."""
        blob = seal_ticket(make_ticket(), SERVER_KEY)
        assert b"jis" not in blob
        assert b"rlogin" not in blob
        assert SESSION_KEY.key_bytes not in blob

    def test_wrong_key_rejected(self):
        blob = seal_ticket(make_ticket(), SERVER_KEY)
        with pytest.raises(KerberosError) as err:
            unseal_ticket(blob, GEN.session_key())
        assert err.value.code == ErrorCode.RD_AP_MODIFIED

    def test_user_cannot_modify_ticket(self):
        """"it is safe to allow the user to pass the ticket on to the
        server without having to worry about the user modifying it"."""
        blob = bytearray(seal_ticket(make_ticket(), SERVER_KEY))
        for i in range(0, len(blob), 8):
            tampered = bytearray(blob)
            tampered[i] ^= 0x01
            with pytest.raises(KerberosError):
                unseal_ticket(bytes(tampered), SERVER_KEY)

    def test_garbage_rejected(self):
        with pytest.raises(KerberosError):
            unseal_ticket(b"\x00" * 64, SERVER_KEY)

    @given(st.binary(min_size=16, max_size=64).map(lambda b: b + b"\x00" * ((-len(b)) % 8)))
    @settings(max_examples=20)
    def test_random_blobs_never_parse(self, blob):
        with pytest.raises(KerberosError):
            unseal_ticket(blob, SERVER_KEY)


class TestLifetime:
    def test_expiry_boundary(self):
        t = make_ticket(timestamp=1000.0, life=100.0)
        assert t.expires == 1100.0
        assert not t.expired(now=1100.0)
        assert t.expired(now=1100.1)

    def test_expiry_with_skew_allowance(self):
        t = make_ticket(timestamp=1000.0, life=100.0)
        assert not t.expired(now=1150.0, skew=60.0)
        assert t.expired(now=1161.0, skew=60.0)

    def test_not_yet_valid(self):
        t = make_ticket(timestamp=1000.0)
        assert t.not_yet_valid(now=500.0)
        assert not t.not_yet_valid(now=950.0, skew=60.0)
        assert not t.not_yet_valid(now=1000.0)

    def test_remaining_life(self):
        t = make_ticket(timestamp=1000.0, life=100.0)
        assert t.remaining_life(now=1040.0) == 60.0
        assert t.remaining_life(now=2000.0) == 0.0

    def test_zero_life_ticket_immediately_expired(self):
        t = make_ticket(life=0.0)
        assert t.expired(now=t.timestamp + 0.1)


class TestSingleServerSingleClient:
    """Paper: "A ticket is good for a single server and a single client"."""

    def test_different_server_keys_cannot_open(self):
        """A ticket for rlogin.priam is useless at rlogin.helen."""
        priam_key = GEN.session_key()
        helen_key = GEN.session_key()
        blob = seal_ticket(make_ticket(), priam_key)
        with pytest.raises(KerberosError):
            unseal_ticket(blob, helen_key)

    def test_client_identity_is_inside_the_seal(self):
        blob = seal_ticket(make_ticket(), SERVER_KEY)
        opened = unseal_ticket(blob, SERVER_KEY)
        assert str(opened.client) == f"jis@{REALM}"

    def test_repr_mentions_parties(self):
        r = repr(make_ticket())
        assert "rlogin.priam" in r and "jis" in r
