"""A TGT served from the KDC's memo meets every check a fresh one does.

The TGT is the one ciphertext the protocol reuses on purpose — it is
"used to obtain tickets" for every further service (Section 4.4) — so
the KDC keeps the TGTs it has opened (``KerberosServer._tgt_memo``,
content-addressed by TGS key and sealed bytes).  The memo saves the
unseal and the parse and nothing else: the ticket checks, the
authenticator checks and the replay cache run on every request, so
replay refusal stays on the fresh authenticator (Section 4.3).

Each attack below is made with a TGT the KDC has already opened once,
and each test asserts that the attack's own presentation was served
from the memo (or, for a rotated key and a crash, that it could not
be) before asserting the refusal a KDC that never saw the TGT gives.
"""

import pytest

from repro.core import (
    ErrorCode,
    MessageType,
    Principal,
    TgsRequest,
    build_authenticator,
    decode_message,
    encode_message,
)
from repro.core.replay import CLOCK_SKEW
from repro.crypto import KeyGenerator
from repro.encode import pack_frames
from repro.netsim import IPAddress, Network
from repro.principal import tgs_principal
from repro.realm import Realm

REALM = "ATHENA.MIT.EDU"
RLOGIN = Principal("rlogin", "priam", REALM)
JIS = Principal("jis", "", REALM)
LIFE = 3600.0


@pytest.fixture
def world():
    """A realm, a workstation and jis's TGT — opened once by the KDC,
    so it is in the memo."""
    realm = Realm(Network(seed=27), REALM, seed=b"tgt-memo")
    realm.add_user("jis", "jis-pw")
    realm.add_service("rlogin", "priam")
    ws = realm.workstation()
    cred = ws.client.kinit("jis", "jis-pw", life=LIFE)
    assert present(realm, cred, ws.host.address) == ("TGS_REP", False)
    return realm, ws, cred


def tgs_wire(realm, cred, address):
    """A TGS request for rlogin carrying ``cred``'s TGT and a fresh
    authenticator naming ``address``."""
    stamp = realm.net.clock.now()
    return encode_message(MessageType.TGS_REQ, TgsRequest(
        service=RLOGIN,
        requested_life=LIFE,
        timestamp=stamp,
        tgt_realm=REALM,
        tgt=cred.ticket,
        authenticator=build_authenticator(
            client=JIS, address=address, now=stamp,
            session_key=cred.session_key,
        ),
    ))


def send(realm, wire, src):
    """``(reply code, served from the memo?)`` for one request from
    ``src``."""
    hits = realm.net.metrics.total("kdc.tgt_memo_total", result="hit")
    (reply,) = realm.shards[0].kdc.process_request_buffer(pack_frames([wire]), src)
    mtype, message = decode_message(bytes(reply))
    code = (
        ErrorCode(message.code).name if mtype == MessageType.ERROR
        else mtype.name
    )
    served = realm.net.metrics.total("kdc.tgt_memo_total", result="hit")
    return code, served > hits


def present(realm, cred, src):
    return send(realm, tgs_wire(realm, cred, src), src)


def test_a_repeat_is_served_from_the_memo(world):
    realm, ws, cred = world
    realm.net.runtime.run_for(1.0)
    assert present(realm, cred, ws.host.address) == ("TGS_REP", True)


def test_from_another_address(world):
    """A stolen TGT and session key, used from the thief's own host."""
    realm, ws, cred = world
    elsewhere = IPAddress(ws.host.address.as_int + 1)
    realm.net.runtime.run_for(1.0)
    assert present(realm, cred, elsewhere) == ("RD_AP_BADD", True)


def test_after_expiry(world):
    realm, ws, cred = world
    realm.net.runtime.run_for(LIFE + CLOCK_SKEW + 1.0)
    assert present(realm, cred, ws.host.address) == ("RD_AP_EXP", True)


def test_with_a_replayed_authenticator(world):
    realm, ws, cred = world
    realm.net.runtime.run_for(1.0)
    wire = tgs_wire(realm, cred, ws.host.address)
    assert send(realm, wire, ws.host.address) == ("TGS_REP", True)
    assert send(realm, wire, ws.host.address) == ("RD_AP_REPEAT", True)


def test_after_a_tgs_key_rotation(world):
    """The memo is keyed by the TGS key's bytes too: once the key
    changes, a TGT sealed under the old one is opened — and refused —
    under the new one."""
    realm, ws, cred = world
    realm.shards[0].db.change_key(
        tgs_principal(REALM),
        new_key=KeyGenerator(seed=b"tgt-memo-rotation").session_key(),
        now=realm.net.clock.now(),
    )
    realm.net.runtime.run_for(1.0)
    assert present(realm, cred, ws.host.address) == ("RD_AP_MODIFIED", False)


def test_after_a_crash_the_memo_is_empty(world):
    realm, ws, cred = world
    site = realm.shards[0]
    assert len(site.kdc._tgt_memo) == 1
    realm.net.crash_host(site.master_host.name, downtime=30.0)
    realm.net.runtime.run_for(31.0)
    assert len(site.kdc._tgt_memo) == 0
    assert present(realm, cred, ws.host.address) == ("TGS_REP", False)
    assert len(site.kdc._tgt_memo) == 1
