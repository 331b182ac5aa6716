"""An oracle for Figures 5 and 8 that shares no code with the KDC.

The twin tests in ``test_batch_plane.py`` (``TestAnyCutIsUnobservable``,
``TestTgsBatchSemantics``) compare the request pipeline with itself at
another batch size; they cannot see a mistake every batch size makes
alike, and what a batch costs is the count gate's
(``tests/integration/test_trajectory.py``).  This file says what the replies *should be*: with
every cache off it recomposes each expected reply from public
constructors only — ``Ticket``, ``KdcReplyBody``, ``KdcReply``,
``encode_message``, database reads, and session keys drawn in request
order from a same-seed twin's ``KeyGenerator`` — sealing both the
ticket and the reply body with the oracle's ``seal_ref``
(``tests/crypto/reference_des.py``: loop-form DES, byte-path PCBC, its
own statement of the seal frame), so the expected bytes never pass
through production ``seal``.  It demands byte equality with what the
pipeline answered, with its caches on, one frame per call, in buffers
astride the sealing threshold (``WIDE_MIN_MESSAGES``; a queued KDC's
batch of 8 among them), in buffers one past ``WIDE_MIN_BLOCKS`` and one
past twice it, and with every cache off.  Each TGT is presented three
times with fresh authenticators, so most TGS replies come from a TGT
the KDC's memo served and are held to the same bytes.

It is the seed of ROADMAP's whole-protocol oracle: Figures 5 and 8
today, valid requests only.
"""

from contextlib import nullcontext

import pytest

from repro.core.authenticator import Authenticator
from repro.core.crossrealm import register_accepting_key
from repro.core.messages import (
    AsRequest,
    KdcReply,
    KdcReplyBody,
    MessageType,
    TgsRequest,
    encode_message,
)
from repro.core.ticket import Ticket
from repro.crypto import DesKey, KeyGenerator, keycache
from repro.crypto.modes import WIDE_MIN_BLOCKS, WIDE_MIN_MESSAGES
from repro.encode import pack_frames
from repro.netsim import Network
from repro.principal import Principal, tgs_principal
from repro.realm import Realm
from tests.crypto.reference_des import seal_ref

REALM = "ATHENA.MIT.EDU"
LCS = "LCS.MIT.EDU"
RLOGIN = Principal("rlogin", "priam", REALM)
TGS = tgs_principal(REALM)
JIS = Principal("jis", "", REALM)
VISITOR = Principal("visitor", "", LCS)


def build_realm():
    net = Network(seed=14)
    realm = Realm(net, REALM, seed=b"kdc-oracle")
    realm.add_user("jis", "jis-pw")
    realm.add_service("rlogin", "priam")
    xkey = KeyGenerator(seed=b"kdc-oracle-xrealm").session_key()
    register_accepting_key(realm.shards[0].db, LCS, xkey)
    return realm, xkey


def expected_reply(db, keygen, mtype, client, reply_key, request, src, now,
                   life_cap):
    """Figures 5 and 8 from the paper's text: a fresh session key, a
    ticket for the service sealed in the service's key, and both
    returned sealed in ``reply_key``."""
    service = db.get_record(request.service)
    life = min(request.requested_life, life_cap, service.max_life)
    session = keygen.session_key_bytes()
    ticket = Ticket(
        server=request.service,
        client=client,
        address=src.as_int,
        timestamp=now,
        life=life,
        session_key=session,
    )
    body = KdcReplyBody(
        session_key=session,
        server=request.service,
        issue_time=now,
        life=life,
        kvno=service.key_version,
        request_timestamp=request.timestamp,
        ticket=seal_ref(db.principal_key(request.service), ticket.to_bytes()),
    )
    reply = KdcReply(
        client=client, sealed_body=seal_ref(reply_key, body.to_bytes())
    )
    return encode_message(mtype, reply)


#: Times each sealed TGT is presented, each time with a fresh
#: authenticator — as a TGT is "used to obtain tickets" for every further
#: service (Section 4.4): the repeats are served from the KDC's memo.
PRESENTATIONS = 3


def traffic(realm, xkey, src, count):
    """``count`` valid requests cycling local AS, local TGS, cross-realm
    TGS, their TGTs and authenticators sealed by the oracle too; each
    TGT rides ``PRESENTATIONS`` requests of its realm in a row.
    Returns (wires, recipes): a recipe is what the oracle needs to know
    of a request — for a TGS request, the plaintext TGT the test itself
    sealed."""
    now = realm.net.clock.now()
    gen = KeyGenerator(seed=b"kdc-oracle-tgt-sessions")
    tgt_keys = {
        REALM: realm.shards[0].db.principal_key(TGS),
        LCS: xkey,
    }
    presented = {REALM: 0, LCS: 0}
    sealed = {}  # realm -> (plaintext TGT, its sealed bytes)
    wires, recipes = [], []
    for k in range(count):
        if k % 3 == 0:
            request = AsRequest(
                client=JIS, service=TGS, requested_life=3600.0 + k,
                timestamp=float(k),
            )
            wires.append(encode_message(MessageType.AS_REQ, request))
            recipes.append((request, None))
            continue
        client, tgt_realm = ((JIS, REALM), (VISITOR, LCS))[k % 3 - 1]
        if presented[tgt_realm] % PRESENTATIONS == 0:
            tgt = Ticket(
                server=TGS,
                client=client,
                address=src.as_int,
                timestamp=now,
                life=1800.0 + k,
                session_key=gen.session_key_bytes(),
            )
            sealed[tgt_realm] = (
                tgt, seal_ref(tgt_keys[tgt_realm], tgt.to_bytes())
            )
        presented[tgt_realm] += 1
        tgt, blob = sealed[tgt_realm]
        request = TgsRequest(
            service=RLOGIN,
            requested_life=3600.0,
            timestamp=now + k * 0.001,
            tgt_realm=tgt_realm,
            tgt=blob,
            authenticator=seal_ref(
                DesKey.from_bytes(tgt.session_key, allow_weak=True),
                Authenticator(
                    client=client, address=src.as_int,
                    timestamp=now + k * 0.001, checksum=0,
                ).to_bytes(),
            ),
        )
        wires.append(encode_message(MessageType.TGS_REQ, request))
        recipes.append((request, tgt))
    return wires, recipes


BATCHES = sorted({
    1, WIDE_MIN_MESSAGES - 1, WIDE_MIN_MESSAGES, WIDE_MIN_MESSAGES + 1, 8,
    WIDE_MIN_BLOCKS + 1, 2 * WIDE_MIN_BLOCKS + 1,
})


@pytest.mark.parametrize("batch", BATCHES)
def test_pipeline_replies_equal_the_recomposed_figures(batch):
    assert_replies_equal_the_recomposed_figures(batch, cached=True)


@pytest.mark.parametrize("batch", BATCHES)
def test_with_every_cache_off_the_replies_are_the_same(batch):
    assert_replies_equal_the_recomposed_figures(batch, cached=False)


def assert_replies_equal_the_recomposed_figures(batch, cached):
    (realm, xkey), (twin, _) = build_realm(), build_realm()
    src = realm.workstation().host.address
    now = realm.net.clock.now()
    wires, recipes = traffic(realm, xkey, src, 2 * max(BATCHES))

    answered = []
    with nullcontext() if cached else keycache.caches_disabled():
        for start in range(0, len(wires), batch):
            answered.extend(
                bytes(reply)
                for reply in realm.shards[0].kdc.process_request_buffer(
                    pack_frames(wires[start:start + batch]), src
                )
            )
    # Two of every three TGS requests carry a TGT the KDC opened before
    # (in an earlier buffer or earlier in this one): served from the
    # memo with the caches on, unsealed again with them off.
    tgts = [tgt for _request, tgt in recipes if tgt is not None]
    distinct = len({id(tgt) for tgt in tgts})
    memo = {
        result: realm.net.metrics.total("kdc.tgt_memo_total", result=result)
        for result in ("hit", "miss")
    }
    assert memo == (
        {"hit": len(tgts) - distinct, "miss": distinct} if cached
        else {"hit": 0, "miss": 0}
    )

    db, keygen = twin.shards[0].db, twin.shards[0].kdc.keygen
    with keycache.caches_disabled():
        expected = []
        for request, tgt in recipes:
            if tgt is None:
                client = db.get_record(request.client)
                expected.append(expected_reply(
                    db, keygen, MessageType.AS_REP, request.client,
                    db.principal_key(request.client), request, src, now,
                    life_cap=client.max_life,
                ))
            else:
                expected.append(expected_reply(
                    db, keygen, MessageType.TGS_REP, tgt.client,
                    DesKey.from_bytes(tgt.session_key, allow_weak=True),
                    request, src, now,
                    life_cap=tgt.timestamp + tgt.life - now,
                ))
    assert answered == expected
    # None was refused: these are Figure 5 and Figure 8 replies.
    assert {reply[0] for reply in answered} == {
        int(MessageType.AS_REP), int(MessageType.TGS_REP)
    }
