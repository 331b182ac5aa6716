"""The KDC request plane.

Every request rides one staged pipeline (decode-all → unseal-all →
lookup-all → admit → unseal-keys → draw → seal-all → encode-all), and
how requests are cut into
batches must be *unobservable*: bit-identical replies (keygen state
consumed in item order, split and interleaved seals bit-exact), typed
per-item errors that never poison batchmates, and the same
metrics/audit/trace surface.  Two same-seed realms make the comparison
exact — one is handed the wire bytes one frame per call (a datagram to
the Kerberos port, or a one-frame request buffer), the other the same
bytes in larger buffers through
:meth:`KerberosServer.process_request_buffer`.  What the replies
*should be* is pinned separately, by an oracle that shares no pipeline
code: ``tests/core/test_kdc_oracle.py``.
"""

import collections
import gc
import types
from contextlib import nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.authenticator import build_authenticator
from repro.core.crossrealm import register_accepting_key
from repro.core.errors import ErrorCode, KerberosError
from repro.core.messages import (
    AsRequest,
    ErrorReply,
    MessageType,
    PreauthAsRequest,
    TgsRequest,
    build_preauth,
    decode_message,
    encode_message,
)
from repro.core.ticket import Ticket, seal_ticket, seal_tickets_cached
from repro.crypto import (
    DesKey,
    KeyGenerator,
    des_simd,
    keycache,
)
from repro.crypto import des, modes, string_to_key
from repro.crypto.modes import WIDE_MIN_BLOCKS, WIDE_MIN_MESSAGES
from repro.database.schema import ATTR_REQUIRE_PREAUTH
from repro.encode import pack_frames
from repro.netsim import IPAddress, Network
from repro.netsim.ports import KERBEROS_PORT
from repro.principal import Principal, kdbm_principal, tgs_principal
from repro.realm import Realm, RealmTopology
from repro.runtime import WorkQueueConfig
from tests.crypto.reference_des import seal_prefix_state, seal_ref

REALM = "ATHENA.MIT.EDU"


def build_realm():
    net = Network(seed=11)
    realm = Realm(net, REALM, seed=b"batch-plane")
    realm.add_user("jis", "jis-pw")
    realm.add_user("bcn", "bcn-pw")
    realm.add_service("rlogin", "priam")
    return realm


def as_wire(client="jis", life=3600.0, timestamp=0.0):
    return encode_message(MessageType.AS_REQ, AsRequest(
        client=Principal(client, "", REALM),
        service=tgs_principal(REALM),
        requested_life=life,
        timestamp=timestamp,
    ))


def tgs_wire(realm, ws, service=("rlogin", "priam")):
    """A valid TGS_REQ, built the way the client library builds one."""
    tgt = ws.client.cache.tgt(REALM)
    now = realm.net.clock.now()
    authenticator = build_authenticator(
        client=ws.client.cache.owner,
        address=ws.host.address,
        now=now,
        session_key=tgt.session_key,
    )
    request = TgsRequest(
        service=Principal(service[0], service[1], REALM),
        requested_life=3600.0,
        timestamp=now,
        tgt_realm=REALM,
        tgt=tgt.ticket,
        authenticator=authenticator,
    )
    return encode_message(MessageType.TGS_REQ, request)


def serve_in_buffers(realm, wires, src, sizes):
    """Replies to ``wires`` handed to the KDC as consecutive request
    buffers of ``sizes`` frames."""
    replies, start = [], 0
    for size in sizes:
        replies.extend(
            bytes(reply)
            for reply in realm.kdc.process_request_buffer(
                pack_frames(wires[start:start + size]), src
            )
        )
        start += size
    return replies


def one_frame_per_call(realm, wires, src):
    """The reference leg: each wire alone in its own request buffer."""
    return serve_in_buffers(realm, wires, src, [1] * len(wires))


def one_datagram_per_call(realm, wires, host):
    """The reference leg as a workstation drives it: each wire its own
    datagram to an un-queued KDC's Kerberos port."""
    kdc_address = realm.master_host.address
    return [host.rpc(kdc_address, KERBEROS_PORT, wire) for wire in wires]


@pytest.fixture(autouse=True)
def fresh_caches():
    keycache.clear()
    yield
    keycache.clear()


def _mixed_batch(realm, ws):
    """AS + TGS + garbage + unknown principal, interleaved."""
    return [
        as_wire("jis"),
        b"\xffnot a kerberos message",
        tgs_wire(realm, ws),
        as_wire("nosuch"),
        as_wire("bcn"),
    ]


class TestBatchMatchesSinglePlane:
    def test_mixed_batch_is_bit_identical(self):
        realm_a = build_realm()
        realm_b = build_realm()
        ws_a = realm_a.workstation()
        ws_b = realm_b.workstation()
        ws_a.client.kinit("jis", "jis-pw")
        ws_b.client.kinit("jis", "jis-pw")

        wires_a = _mixed_batch(realm_a, ws_a)
        wires_b = _mixed_batch(realm_b, ws_b)
        assert wires_a == wires_b  # same-seed realms, same bytes in

        singles = one_datagram_per_call(realm_a, wires_a, ws_a.host)
        batch = realm_b.kdc.process_request_buffer(
            pack_frames(wires_b), ws_b.host.address
        )
        assert [bytes(reply) for reply in batch] == singles

    def test_per_item_typed_errors_batch_survives(self):
        realm = build_realm()
        ws = realm.workstation()
        ws.client.kinit("jis", "jis-pw")
        replies = realm.kdc.process_request_buffer(
            pack_frames(_mixed_batch(realm, ws)), ws.host.address
        )
        kinds = [decode_message(r) for r in replies]
        assert kinds[0][0] == MessageType.AS_REP
        assert kinds[2][0] == MessageType.TGS_REP
        assert kinds[4][0] == MessageType.AS_REP
        garbage = kinds[1][1]
        unknown = kinds[3][1]
        assert isinstance(garbage, ErrorReply)
        assert garbage.code == int(ErrorCode.KDC_GEN_ERR)
        assert isinstance(unknown, ErrorReply)
        assert unknown.code == int(ErrorCode.KDC_PR_UNKNOWN)

    def test_caches_disabled_stays_bit_identical(self):
        """The skeleton/key caches are a pure optimization: with every
        cache layer off, a buffer is still answered byte-for-byte."""
        realm_a = build_realm()
        realm_b = build_realm()
        wires = [as_wire("jis", timestamp=float(i)) for i in range(5)]
        src_a = realm_a.workstation().host.address
        src_b = realm_b.workstation().host.address
        with keycache.caches_disabled():
            singles = one_frame_per_call(realm_a, wires, src_a)
            batch = realm_b.kdc.process_request_buffer(
                pack_frames(wires), src_b
            )
        assert [bytes(reply) for reply in batch] == singles
        assert keycache.skeleton_stats()["size"] == 0


class TestBatchObservability:
    def test_batch_size_histogram_and_skeleton_hits(self):
        realm = build_realm()
        src = realm.workstation().host.address
        wires = [as_wire("jis", timestamp=float(i)) for i in range(8)]
        realm.kdc.process_request_buffer(pack_frames(wires), src)
        labels = {"server": realm.master_host.name}
        hist = realm.net.metrics.get("kdc.batch_size", labels)
        assert hist.count == 1  # one batch ...
        assert hist.sum == 8.0  # ... of eight requests
        # Seven of the eight AS tickets reuse the first one's skeleton.
        assert realm.net.metrics.total(
            "kdc.skeleton_hits_total", **labels
        ) >= 7

    def test_per_item_spans_carry_stage_attrs(self):
        if not des_simd.available():
            pytest.skip("numpy not available; no block rides the lanes")
        realm = build_realm()
        src = realm.workstation().host.address
        n = WIDE_MIN_MESSAGES
        wires = [
            as_wire(("jis", "bcn")[i % 2], timestamp=float(i))
            for i in range(n)
        ]
        realm.kdc.process_request_buffer(pack_frames(wires), src)
        spans = [
            s for s in realm.net.tracer.spans if s.name == "kdc.as"
        ]
        assert len(spans) == n
        for span in spans:
            assert span.attrs["batch_size"] == n
            assert span.attrs["stage_decoded"] == n
            assert span.attrs["stage_sealed"] == n
            assert span.attrs["stage_interleaved_blocks"] > 0
            assert span.attrs["stage_encoded_bytes"] > 0
        # Key lookups are memoized per batch: each principal's first
        # item pays them, its repeats need none.
        for span in spans[:2]:
            assert span.attrs["crypto_ops"] > 0

    def test_interleaved_blocks_metric_mirrors(self, monkeypatch):
        """``crypto.interleaved_blocks_total`` counts wide-lane blocks:
        a batch whose first sealing run — two messages per request, the
        ticket and the head of its reply — reaches ``WIDE_MIN_MESSAGES``
        moves it, a smaller one or a numpy-less run leaves it untouched."""
        realm = build_realm()
        src = realm.workstation().host.address

        def serve(count):
            wires = [
                as_wire("jis", timestamp=float(i)) for i in range(count)
            ]
            before = realm.net.metrics.total(
                "crypto.interleaved_blocks_total"
            )
            realm.kdc.process_request_buffer(pack_frames(wires), src)
            return realm.net.metrics.total(
                "crypto.interleaved_blocks_total"
            ) - before

        assert serve(1) == 0
        assert serve((WIDE_MIN_MESSAGES - 1) // 2) == 0
        if des_simd.available():
            assert serve((WIDE_MIN_MESSAGES + 1) // 2) > 0
            assert serve(8) > 0  # a queued KDC's batch
        monkeypatch.setattr(des_simd, "_np", None)
        assert serve(WIDE_MIN_BLOCKS) == 0


DOORS = {"unqueued": 1, "buffer8": 8, "queued": 1}


def refused_spans(door):
    """An unknown principal's AS_REQ and a garbage datagram, sent to the
    KDC through ``door``; returns the spans they left, by name."""
    net = Network(seed=11)
    queue = (
        WorkQueueConfig(workers=1, batch_size=4) if door == "queued" else None
    )
    realm = Realm(
        net, REALM, seed=b"batch-plane", topology=RealmTopology(kdc_queue=queue)
    )
    realm.add_user("jis", "jis-pw")
    host = realm.workstation().host
    refused = [as_wire("nosuch"), b"\xffnot a kerberos message"]
    if door == "buffer8":
        served = [as_wire("jis", timestamp=float(i)) for i in range(6)]
        realm.kdc.process_request_buffer(
            pack_frames(served + refused), host.address
        )
    else:
        one_datagram_per_call(realm, refused, host)
    return {
        span.name: span for span in net.tracer.spans if "error" in span.attrs
    }


class TestRefusedRequestSpans:
    """A refusal is a value in the pipeline, not an exception passing
    through ``Tracer.span`` — the span must say so all the same, through
    every front door."""

    @pytest.mark.parametrize("door", DOORS)
    def test_unknown_principal_marks_its_span(self, door):
        span = refused_spans(door)["kdc.as"]
        assert span.attrs["error"].startswith("KerberosError: KDC_PR_UNKNOWN")
        assert span.attrs["batch_size"] == DOORS[door]
        assert span.attrs["crypto_ops"] == 0
        assert "stage_sealed" in span.attrs

    @pytest.mark.parametrize("door", DOORS)
    def test_garbage_gets_a_span_of_its_own(self, door):
        span = refused_spans(door)["kdc.other"]
        assert "KDC_GEN_ERR" in span.attrs["error"]
        assert span.attrs["batch_size"] == DOORS[door]

    def test_refused_items_pin_no_frames(self):
        """A refusal kept as a value keeps no traceback: with one, the
        pipeline's frame (its ``errors`` list holds the exception, whose
        traceback holds the frame) would sit in a reference cycle until
        the next pass of the cyclic collector."""
        realm = build_realm()
        src = realm.workstation().host.address
        tgs_garbage = encode_message(
            MessageType.TGS_REQ,
            TgsRequest(
                service=Principal("rlogin", "priam", REALM),
                requested_life=600.0, timestamp=1.0, tgt_realm=REALM,
                tgt=b"\x00" * 24, authenticator=b"\x00" * 24,
            ),
        )
        buffer = pack_frames(
            [as_wire("jis"), as_wire("nosuch"), b"\xffgarbage", tgs_garbage]
        )
        realm.kdc.process_request_buffer(buffer, src)  # warm every cache
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            replies = realm.kdc.process_request_buffer(buffer, src)
            gc.collect()
            pinned = [
                obj.f_code.co_name for obj in gc.garbage
                if isinstance(obj, types.FrameType)
            ]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert [decode_message(r)[0] for r in replies].count(
            MessageType.ERROR
        ) == 3
        assert pinned == []

    def test_served_requests_carry_no_error(self):
        realm = build_realm()
        ws = realm.workstation()
        ws.client.kinit("jis", "jis-pw")
        (span,) = [s for s in realm.net.tracer.spans if s.name == "kdc.as"]
        assert "error" not in span.attrs
        assert span.attrs["batch_size"] == 1


def corrupt_row(realm, principal):
    """Flip one bit of ``principal``'s sealed key where it is stored."""
    record = realm.db.get_record(principal)
    blob = bytearray(record.sealed_key)
    blob[9] ^= 0x40
    realm.db.store.put(
        principal.db_key(), record.replace(sealed_key=bytes(blob)).to_bytes()
    )


class TestCorruptRowIsOneItemsProblem:
    """ISSUE 19 bugfix: ``MasterKeyError`` is not a ``KerberosError``,
    so a ``sealed_key`` that would not unseal used to escape the
    pipeline — the whole batch unanswered, and over the network the
    server's exception raised inside the *client's* call."""

    BCN = Principal("bcn", "", REALM)

    def test_batchmates_are_answered(self):
        realm = build_realm()
        src = realm.workstation().host.address
        corrupt_row(realm, self.BCN)
        replies = realm.kdc.process_request_buffer(
            pack_frames([as_wire("jis"), as_wire("bcn"), as_wire("jis")]), src
        )
        assert [reply_code(reply) for reply in replies] == [
            "AS_REP", "KDC_GEN_ERR", "AS_REP",
        ]
        _mtype, error = decode_message(replies[1])
        assert "bcn" in error.text and "cannot unseal" in error.text
        # Audited under the principal whose login it refused; no session
        # key was drawn for it.
        (event,) = realm.net.audit.events("auth_failure")
        assert event.principal == f"bcn@{REALM}"
        assert event.detail == "kind=as code=KDC_GEN_ERR"
        assert realm.kdc.keygen._counter == 2
        labels = {"server": realm.master_host.name}
        assert realm.net.metrics.total(
            "kdc.outcomes_total", code="KDC_GEN_ERR", **labels
        ) == 1

    def test_a_corrupt_service_row_refuses_its_tickets_only(self):
        realm = build_realm()
        ws = realm.workstation()
        ws.client.kinit("jis", "jis-pw")
        wires = [as_wire("bcn"), tgs_wire(realm, ws), as_wire("jis")]
        corrupt_row(realm, Principal("rlogin", "priam", REALM))
        replies = realm.kdc.process_request_buffer(
            pack_frames(wires), ws.host.address
        )
        assert [reply_code(reply) for reply in replies] == [
            "AS_REP", "KDC_GEN_ERR", "AS_REP",
        ]
        (event,) = realm.net.audit.events("auth_failure")
        assert event.principal == f"jis@{REALM}"  # the authenticated client
        assert event.detail == "kind=tgs code=KDC_GEN_ERR"

    def test_a_corrupt_tgs_row_spares_the_requests_that_need_no_tgt(self):
        realm = build_realm()
        ws = realm.workstation()
        ws.client.kinit("jis", "jis-pw")
        kdbm = kdbm_principal(REALM)
        to_kdbm = encode_message(MessageType.AS_REQ, AsRequest(
            client=Principal("jis", "", REALM), service=kdbm,
            requested_life=300.0, timestamp=0.0,
        ))
        wires = [tgs_wire(realm, ws), to_kdbm, as_wire("bcn")]
        corrupt_row(realm, tgs_principal(REALM))
        replies = realm.kdc.process_request_buffer(
            pack_frames(wires), ws.host.address
        )
        assert [reply_code(reply) for reply in replies] == [
            "KDC_GEN_ERR", "AS_REP", "KDC_GEN_ERR",
        ]

    def test_a_queued_kdc_resolves_every_reply_of_the_batch(self):
        net = Network(seed=11)
        queue = WorkQueueConfig(workers=1, batch_size=4)
        realm = Realm(
            net, REALM, seed=b"batch-plane",
            topology=RealmTopology(kdc_queue=queue),
        )
        realm.add_user("jis", "jis-pw")
        realm.add_user("bcn", "bcn-pw")
        corrupt_row(realm, self.BCN)
        host = realm.workstation().host
        # The first arrival occupies the worker; the next three queue
        # behind it and are served as one batch.
        pending = [
            host.rpc_async(realm.master_host.address, KERBEROS_PORT, as_wire(name))
            for name in ("jis", "jis", "bcn", "jis")
        ]
        net.runtime.run_until_idle()
        assert [p.error for p in pending] == [None] * 4
        assert [reply_code(p.reply) for p in pending] == [
            "AS_REP", "AS_REP", "KDC_GEN_ERR", "AS_REP",
        ]
        (refused,) = [s for s in net.tracer.spans if "error" in s.attrs]
        assert refused.attrs["batch_size"] == 3
        assert refused.attrs["error"].startswith("KerberosError: KDC_GEN_ERR")

    def test_kinit_sees_a_kerberos_error(self):
        realm = build_realm()
        corrupt_row(realm, self.BCN)
        ws = realm.workstation()
        with pytest.raises(KerberosError) as refusal:
            ws.client.kinit("bcn", "bcn-pw")
        assert refusal.value.code == ErrorCode.KDC_GEN_ERR
        # The KDC is unharmed: the next user logs in.
        assert ws.client.kinit("jis", "jis-pw") is not None


class TestSkeletonInvalidation:
    def test_principal_mutation_flushes_skeletons(self):
        """A kadmin write lands in the journal and — through the
        database mutation listener — empties the skeleton cache."""
        realm = build_realm()
        src = realm.workstation().host.address
        realm.kdc.process_request_buffer(
            pack_frames([as_wire("jis")]), src
        )
        assert keycache.skeleton_stats()["size"] > 0
        realm.db.change_key(
            Principal("rlogin", "priam", REALM), new_password="rotated"
        )
        assert keycache.skeleton_stats()["size"] == 0

    def test_slave_dump_application_flushes_skeletons(self):
        realm = build_realm()
        replica = realm.db.replica()
        from repro.core.kdc import KerberosServer

        host = realm.net.add_host("slave-kdc")
        kdc = KerberosServer(
            replica, realm.keygen.fork(b"slave")
        ).attach(host)
        keycache.skeleton_put(("warm",), (b"x", 0))
        replica.load_dump(realm.db.dump(now=1.0))
        assert keycache.skeleton_stats()["size"] == 0
        kdc.detach() if hasattr(kdc, "detach") else None

    def test_rotated_service_key_cannot_hit_stale_skeleton(self):
        """Even without the listener, content addressing makes a rotated
        key miss: the sealed ticket after rotation opens under the new
        key."""
        realm = build_realm()
        ws = realm.workstation()
        src = ws.host.address
        realm.kdc.process_request_buffer(
            pack_frames([as_wire("jis")]), src
        )
        realm.db.change_key(
            Principal("rlogin", "priam", REALM), new_password="rotated"
        )
        ws.client.kinit("jis", "jis-pw")
        cred = ws.client.get_credential(
            Principal("rlogin", "priam", REALM)
        )
        from repro.core.ticket import unseal_ticket

        new_key = realm.db.principal_key(
            Principal("rlogin", "priam", REALM)
        )
        ticket = unseal_ticket(cred.ticket, new_key)
        assert ticket.client == Principal("jis", "", REALM)


# --------------------------------------------------------------------------
# ISSUE 12: the TGS request side rides the batch (UNSEAL-ALL stage).
#
# Every case below runs on twin same-seed realms: one answers the wires
# as one datagram each at its Kerberos port, the other answers the same
# bytes in buffers of ``batch`` frames through
# ``process_request_buffer``.  The twins must agree reply for reply
# *and* audit event for audit event.
# --------------------------------------------------------------------------

LCS = "LCS.MIT.EDU"
RLOGIN = Principal("rlogin", "priam", REALM)
N_USERS = 6
#: A principal that must prove its key before the AS answers it.
CAREFUL = Principal("careful", "", REALM)


def build_tgs_realm(n_users=N_USERS):
    net = Network(seed=12)
    realm = Realm(net, REALM, seed=b"tgs-batch")
    for u in range(n_users):
        realm.add_user(f"user{u}", f"pw{u}")
    realm.db.add_principal(
        CAREFUL, password="careful-pw", attributes=ATTR_REQUIRE_PREAUTH
    )
    realm.add_service("rlogin", "priam")
    xkey = KeyGenerator(seed=b"tgs-batch-xrealm").session_key()
    register_accepting_key(realm.db, LCS, xkey)
    return realm, xkey


def crafted_tgt(key, client, address, timestamp, life, session_key):
    """A TGT for this realm's TGS, sealed by hand under ``key``."""
    return seal_ticket(
        Ticket(
            server=tgs_principal(REALM),
            client=client,
            address=IPAddress(address).as_int,
            timestamp=timestamp,
            life=life,
            session_key=session_key,
        ),
        key,
    )


def tgs_request(tgt, session_key, client, address, now, service=RLOGIN,
                tgt_realm=REALM):
    return TgsRequest(
        service=service,
        requested_life=3600.0,
        timestamp=now,
        tgt_realm=tgt_realm,
        tgt=tgt,
        authenticator=build_authenticator(
            client=client, address=address, now=now,
            session_key=DesKey.from_bytes(session_key, allow_weak=True),
        ),
    )


def user_tgts(tgs_key, gen, src, now, n_users=N_USERS):
    """(users, sessions, tgts): a hand-sealed 8-hour TGT for each test
    user, session keys drawn from ``gen``."""
    users = [Principal(f"user{u}", "", REALM) for u in range(n_users)]
    sessions = [gen.session_key_bytes() for _ in users]
    tgts = [
        crafted_tgt(tgs_key, user, src, now, 8 * 3600.0, session)
        for user, session in zip(users, sessions)
    ]
    return users, sessions, tgts


def tgs_scenario(realm, xkey, ws):
    """128 wires: mostly valid AS and TGS traffic, with one of each
    special case planted among them.  Returns (wires, {name: index})."""
    now = realm.net.clock.now()
    src = ws.host.address
    tgs_key = realm.db.principal_key(tgs_principal(REALM))
    gen = KeyGenerator(seed=b"tgs-batch-session-keys")
    users, sessions, tgts = user_tgts(tgs_key, gen, src, now)

    def valid(k):
        u = k % N_USERS
        return tgs_request(tgts[u], sessions[u], users[u], src, now + k * 0.001)

    def wire(request):
        return encode_message(MessageType.TGS_REQ, request)

    wires = []
    for k in range(128):
        if k % 2:
            wires.append(as_wire(f"user{k % N_USERS}", timestamp=float(k)))
        else:
            wires.append(wire(valid(k)))
    where = {}

    def plant(name, index, payload):
        where[name] = index
        wires[index] = payload

    # Two byte-identical requests in one buffer: OK, then RD_AP_REPEAT.
    plant("first", 2, wires[2])
    plant("repeat", 5, wires[2])
    # Tampered TGT: one flipped ciphertext bit.
    bad = valid(1000)
    tampered = bytearray(bad.tgt)
    tampered[11] ^= 0x40
    plant("tampered_tgt", 9, wire(bad.replace(tgt=bytes(tampered))))
    # Truncated authenticator (still whole blocks, trailer gone).
    cut = valid(1001)
    plant("truncated_auth", 12,
          wire(cut.replace(authenticator=cut.authenticator[:-8])))
    # Expired TGT (issued 10 h ago with 8 h of life).
    old = crafted_tgt(
        tgs_key, users[0], src, now - 36000.0, 8 * 3600.0, sessions[0]
    )
    plant("expired_tgt", 17,
          wire(tgs_request(old, sessions[0], users[0], src, now + 1.001)))
    # Wrong source address: the TGT was issued to another workstation.
    elsewhere = IPAddress(src.as_int + 1)
    stolen = crafted_tgt(
        tgs_key, users[1], elsewhere, now, 8 * 3600.0, sessions[1]
    )
    plant("wrong_address", 20,
          wire(tgs_request(stolen, sessions[1], users[1], elsewhere,
                           now + 1.002)))
    # A cross-realm TGT, keyed by the inter-realm key, beside local ones.
    visitor = Principal("visitor", "", LCS)
    visitor_session = gen.session_key_bytes()
    foreign = crafted_tgt(
        xkey, visitor, src, now, 3600.0, visitor_session
    )
    plant("cross_realm", 23,
          wire(tgs_request(foreign, visitor_session, visitor, src,
                           now + 1.003, tgt_realm=LCS)))
    # A realm we share no key with.
    plant("no_cross_realm", 26,
          wire(tgs_request(foreign, visitor_session, visitor, src,
                           now + 1.004, tgt_realm="NOWHERE.EDU")))
    # Authenticated, then refused: the service does not exist.
    plant("service_unknown", 29,
          wire(tgs_request(tgts[2], sessions[2], users[2], src, now + 1.005,
                           service=Principal("nosuch", "priam", REALM))))
    # ... or is only issued by the authentication service (Section 5.1).
    plant("no_tgt", 30,
          wire(tgs_request(tgts[3], sessions[3], users[3], src, now + 1.006,
                           service=kdbm_principal(REALM))))
    plant("garbage", 31, b"\xffnot a kerberos message")
    return wires, where


def audit_rows(realm):
    rows = [
        (e.kind, e.principal, e.detail) for e in realm.net.audit.events()
    ]
    # The replay cache reports a replay the moment it sees one — the
    # unseal stage, ahead of the batch's per-item outcome events — so
    # where it lands among them depends on the cut; the two streams are
    # compared apart.
    replays = [row for row in rows if row[0] == "replay_detected"]
    return [row for row in rows if row[0] != "replay_detected"], replays


def serve_both_ways(batch, cached):
    """Returns (one-datagram-per-call replies, buffered replies,
    realm_a, realm_b, where) for the scenario served in buffers of
    ``batch``."""
    (realm_a, xkey_a), (realm_b, xkey_b) = build_tgs_realm(), build_tgs_realm()
    ws_a, ws_b = realm_a.workstation(), realm_b.workstation()
    wires, where = tgs_scenario(realm_a, xkey_a, ws_a)
    wires_b, _ = tgs_scenario(realm_b, xkey_b, ws_b)
    assert wires == wires_b  # same-seed twins, same bytes in
    src = ws_a.host.address
    with nullcontext() if cached else keycache.caches_disabled():
        singles = one_datagram_per_call(realm_a, wires, ws_a.host)
        batched = serve_in_buffers(
            realm_b, wires, src, [batch] * -(-len(wires) // batch)
        )
    return singles, batched, realm_a, realm_b, where


def crypto_ops(realm):
    """The ``crypto_ops`` attribute of every ``kdc.*`` span, in order."""
    return [
        span.attrs["crypto_ops"]
        for span in realm.net.tracer.spans
        if span.name.startswith("kdc.")
    ]


def reply_code(reply):
    """'AS_REP' / 'TGS_REP', or the error code's name."""
    mtype, message = decode_message(reply)
    if mtype == MessageType.ERROR:
        return ErrorCode(message.code).name
    return mtype.name


SERVED = ("AS_REP", "TGS_REP")


class TestTgsBatchSemantics:
    @pytest.mark.parametrize("cached", [True, False], ids=["caches", "nocache"])
    @pytest.mark.parametrize("batch", [1, 8, 33, 128])
    def test_planes_agree_reply_for_reply_and_audit_for_audit(
        self, batch, cached
    ):
        singles, batched, realm_a, realm_b, where = serve_both_ways(
            batch, cached
        )
        assert batched == singles
        assert audit_rows(realm_b) == audit_rows(realm_a)
        # Session keys are drawn in item order, only for items that
        # reach issuance: failures in the middle of a buffer leave both
        # generators in the same state.
        assert (
            realm_b.kdc.keygen.session_key_bytes()
            == realm_a.kdc.keygen.session_key_bytes()
        )

        codes = [reply_code(reply) for reply in batched]
        assert codes[where["first"]] == "TGS_REP"
        assert codes[where["repeat"]] == "RD_AP_REPEAT"
        assert codes[where["tampered_tgt"]] == "RD_AP_MODIFIED"
        assert codes[where["truncated_auth"]] == "RD_AP_MODIFIED"
        assert codes[where["expired_tgt"]] == "RD_AP_EXP"
        assert codes[where["wrong_address"]] == "RD_AP_BADD"
        assert codes[where["cross_realm"]] == "TGS_REP"
        assert codes[where["no_cross_realm"]] == "KDC_NO_CROSS_REALM"
        assert codes[where["service_unknown"]] == "KDC_SERVICE_UNKNOWN"
        assert codes[where["no_tgt"]] == "KDC_PR_NOTGT"
        assert codes[where["garbage"]] == "KDC_GEN_ERR"
        # Batchmates of the failures are untouched.
        planted = set(where.values())
        for index, code in enumerate(codes):
            if index not in planted:
                assert code in SERVED

    def test_refusal_after_authentication_is_audited_under_the_client(self):
        """The parent's batch plane audited these with principal=''."""
        _s, _b, _realm_a, realm_b, _where = serve_both_ways(128, True)
        refused = {
            e.detail: e.principal
            for e in realm_b.net.audit.events("auth_failure")
            if e.detail.startswith("kind=tgs code=KDC_")
        }
        assert refused == {
            "kind=tgs code=KDC_SERVICE_UNKNOWN": f"user2@{REALM}",
            "kind=tgs code=KDC_PR_NOTGT": f"user3@{REALM}",
            # Refused before any ticket was opened: nobody to name.
            "kind=tgs code=KDC_NO_CROSS_REALM": "",
        }

    def test_failed_ticket_never_has_its_authenticator_unsealed(
        self, monkeypatch
    ):
        from repro.core import kdc as kdc_module
        from repro.core.authenticator import Authenticator

        realm, xkey = build_tgs_realm()
        ws = realm.workstation()
        wires, where = tgs_scenario(realm, xkey, ws)
        unsealed = []
        real = kdc_module.unseal_structs

        def spy(struct, what, items):
            if struct is Authenticator:
                unsealed.extend(bytes(blob) for blob, _key in items)
            return real(struct, what, items)

        monkeypatch.setattr(kdc_module, "unseal_structs", spy)
        realm.kdc.process_request_buffer(pack_frames(wires), ws.host.address)

        def authenticator_of(name):
            _mtype, request = decode_message(wires[where[name]])
            return bytes(request.authenticator)

        assert authenticator_of("first") in unsealed
        assert authenticator_of("truncated_auth") in unsealed
        assert authenticator_of("wrong_address") in unsealed
        for name in ("tampered_tgt", "expired_tgt", "no_cross_realm"):
            assert authenticator_of(name) not in unsealed

    def test_spans_carry_the_single_planes_crypto_ops(self):
        """``crypto_ops`` is read off the key cache's own counters; it
        is a per-item count — what the request costs alone — on every
        span, served or refused, however large the batch around it."""
        singles, _b, realm_a, realm_b, _where = serve_both_ways(128, True)
        assert len(crypto_ops(realm_a)) == len(singles) == 128
        assert crypto_ops(realm_b) == crypto_ops(realm_a)
        assert any(crypto_ops(realm_b))


# --------------------------------------------------------------------------
# ISSUE 14: one pipeline, so the cut into batches is the only variable
# left — and it must be unobservable.  The property below subsumes the
# fixed 1/8/33/128 twins above: any traffic, any consecutive cut.
# --------------------------------------------------------------------------

#: Mostly served traffic, so a large buffer still has a wide run's worth
#: of seals and unseals left after its refusals.
WIRE_KINDS = 3 * ("as", "tgs") + (
    "duplicate", "tampered_tgt", "garbage", "unknown", "proof", "bad_proof",
    "no_proof", "no_tgt",
)


@st.composite
def cut_traffic(draw):
    """(buffer sizes, one (kind, salt) per wire): small buffers —
    sealing runs on both sides of ``WIDE_MIN_MESSAGES`` — and ones
    around twice ``WIDE_MIN_BLOCKS``, so the one-pass shapes land on
    both sides of theirs."""
    sizes = draw(st.lists(
        st.one_of(
            st.integers(1, 40),
            st.integers(2 * WIDE_MIN_BLOCKS - 8, 2 * WIDE_MIN_BLOCKS),
        ),
        min_size=1, max_size=3,
    ))
    total = sum(sizes)
    items = draw(st.lists(
        st.tuples(st.sampled_from(WIRE_KINDS), st.integers(0, 10 ** 6)),
        min_size=total, max_size=total,
    ))
    return sizes, items


def drawn_wires(realm, ws, items, n_users=N_USERS):
    """The drawn (kind, salt) sequence as wire bytes for ``realm``."""
    now = realm.net.clock.now()
    src = ws.host.address
    users, sessions, tgts = user_tgts(
        realm.db.principal_key(tgs_principal(REALM)),
        KeyGenerator(seed=b"drawn-session-keys"), src, now, n_users,
    )

    def careful(password, **fields):
        """An AS request from the principal that must prove its key."""
        if password is None:
            return as_wire(CAREFUL.name, timestamp=now)
        request = PreauthAsRequest(
            client=CAREFUL, service=tgs_principal(REALM),
            requested_life=3600.0, timestamp=now,
            preauth=build_preauth(string_to_key(password), now),
        )
        return encode_message(MessageType.PREAUTH_AS_REQ, request)

    wires = []
    for k, (kind, salt) in enumerate(items):
        u = salt % n_users
        if kind == "duplicate" and wires:
            wires.append(wires[salt % len(wires)])
        elif kind == "garbage":
            wires.append(b"\xff" + salt.to_bytes(4, "big"))
        elif kind == "unknown":
            wires.append(as_wire(f"nosuch{u}", timestamp=float(k)))
        elif kind == "proof":
            wires.append(careful("careful-pw"))
        elif kind == "bad_proof":
            wires.append(careful("not-the-password"))
        elif kind == "no_proof":
            wires.append(careful(None))
        elif kind in ("tgs", "tampered_tgt", "no_tgt"):
            request = tgs_request(
                tgts[u], sessions[u], users[u], src, now + k * 0.001,
                service=kdbm_principal(REALM) if kind == "no_tgt" else RLOGIN,
            )
            if kind == "tampered_tgt":
                tampered = bytearray(request.tgt)
                tampered[salt % len(tampered)] ^= 0x40
                request = request.replace(tgt=bytes(tampered))
            wires.append(encode_message(MessageType.TGS_REQ, request))
        else:
            wires.append(as_wire(f"user{u}", timestamp=float(k)))
    return wires


#: One 128-wire stream for every cut: refusals of each stage — unknown
#: client (lookup), preauthentication failed or missing (admit), a
#: service only the AS issues for (lookup, after authentication), a
#: replayed authenticator (unseal-all) — each between two admitted items.
STREAM_USERS = 40
STREAM_PERIOD = (
    "as", "unknown", "tgs", "bad_proof", "proof", "no_tgt", "as",
    "duplicate", "tgs", "no_proof", "as", "garbage", "tgs", "as", "tgs", "as",
)
STREAM_REFUSALS = {
    "unknown": "KDC_PR_UNKNOWN", "bad_proof": "KDC_PREAUTH_FAILED",
    "no_tgt": "KDC_PR_NOTGT", "duplicate": "RD_AP_REPEAT",
    "no_proof": "KDC_PREAUTH_REQUIRED", "garbage": "KDC_GEN_ERR",
}


def fixed_stream():
    """(kind, salt) × 128; a ``duplicate`` replays the TGS request five
    places before it."""
    return [
        (kind, k - 5 if kind == "duplicate" else 7 * k)
        for k in range(128)
        for kind in [STREAM_PERIOD[k % len(STREAM_PERIOD)]]
    ]


def assert_cut_is_unobservable(items, sizes, cached, n_users=N_USERS):
    """Serve ``items`` one frame per call at one realm and in buffers of
    ``sizes`` at its same-seed twin; nothing may tell the two apart.
    Returns the replies."""
    keycache.clear()
    (realm_a, _), (realm_b, _) = (
        build_tgs_realm(n_users), build_tgs_realm(n_users)
    )
    ws_a, ws_b = realm_a.workstation(), realm_b.workstation()
    wires = drawn_wires(realm_a, ws_a, items, n_users)
    assert wires == drawn_wires(realm_b, ws_b, items, n_users)
    src = ws_a.host.address
    with nullcontext() if cached else keycache.caches_disabled():
        singles = one_frame_per_call(realm_a, wires, src)
        buffered = serve_in_buffers(realm_b, wires, src, sizes)
    assert buffered == singles
    assert audit_rows(realm_b) == audit_rows(realm_a)
    # What each request costs alone is what it is charged in a batch.
    assert crypto_ops(realm_b) == crypto_ops(realm_a)
    assert any(crypto_ops(realm_b)) == cached
    # Session keys are drawn in item order, only for admitted items: the
    # two key streams stand at the same counter and yield the same next key.
    assert realm_b.kdc.keygen._counter == realm_a.kdc.keygen._counter
    assert (
        realm_b.kdc.keygen.session_key_bytes()
        == realm_a.kdc.keygen.session_key_bytes()
    )
    # Authenticators met the replay cache in arrival order.
    assert (
        list(realm_b.kdc.replay_cache._order)
        == list(realm_a.kdc.replay_cache._order)
    )
    return buffered, realm_b


class TestAnyCutIsUnobservable:
    @settings(max_examples=15, deadline=None)
    @given(traffic=cut_traffic(), cached=st.booleans())
    def test_drawn_traffic_drawn_cuts(self, traffic, cached):
        sizes, items = traffic
        assert_cut_is_unobservable(items, sizes, cached)

    @pytest.mark.parametrize("cached", [True, False], ids=["caches", "nocache"])
    # 5/6/7: astride the sealing threshold (a cut of 8 holds 4 to 6
    # admitted items, so its runs land on both sides as well).
    @pytest.mark.parametrize("batch", [1, 5, 6, 7, 8, 31, 32, 33, 128])
    def test_every_cut_of_one_stream(self, batch, cached):
        items = fixed_stream()
        replies, realm = assert_cut_is_unobservable(
            items, [batch] * -(-len(items) // batch), cached, STREAM_USERS
        )
        codes = [reply_code(reply) for reply in replies]
        for k, (kind, _salt) in enumerate(items):
            assert codes[k] == STREAM_REFUSALS.get(kind, codes[k]), (k, kind)
            if kind in STREAM_REFUSALS:
                # A refusal sits between two admitted items.
                assert codes[k - 1] in SERVED and codes[k + 1] in SERVED
            else:
                assert codes[k] in SERVED, (k, kind, codes[k])
        # One session key per ticket, none for a refusal.
        assert realm.kdc.keygen._counter == 1 + sum(
            code in SERVED for code in codes
        )


class TestSkeletonMissRidesTheBatch:
    """``seal_tickets_cached`` seals each ticket inside the reply that
    carries it — one nested batch seal — with skeleton hits, misses and
    reserved-empty entries riding the same first run."""

    def _tickets(self, count):
        """``(ticket, server key, reply key, body)`` items, the body
        encoded with its ticket field empty (so ending in that field's
        zero u32 prefix): every head length mod 8, no whole block ahead
        of the ticket included."""
        gen = KeyGenerator(seed=b"skeleton-miss")
        key = gen.session_key()
        items = []
        for i in range(count):
            items.append((
                Ticket(
                    server=RLOGIN,
                    # Every third ticket repeats a (server, client) pair.
                    client=Principal(f"user{i % 3 if i % 3 == 0 else i}", "", REALM),
                    address=0x12345678,
                    timestamp=1000.0 + i,
                    life=3600.0,
                    session_key=gen.session_key_bytes(),
                ),
                key,
                gen.session_key(),
                gen.random_bytes((0, 3, 76, 77, 4, 81, 70, 15, 72)[i % 9])
                + bytes(4),
            ))
        return items

    @staticmethod
    def _expected(items):
        """What the two seals made one after the other give, the reply
        body's by the oracle: the body up to its ticket field, the
        field's length prefix, the sealed ticket."""
        blobs = [seal_ticket(t, k) for t, k, _reply_key, _body in items]
        return blobs, [
            seal_ref(
                reply_key, body[:-4] + len(blob).to_bytes(4, "big") + blob
            )
            for (_t, _k, reply_key, body), blob in zip(items, blobs)
        ]

    @pytest.mark.parametrize("count", [1, 5, 6, 7, 8, 40])
    @pytest.mark.parametrize("cached", [True, False], ids=["caches", "nocache"])
    def test_bit_identical_and_caches_the_prefix_state(self, count, cached):
        items = self._tickets(count)
        with nullcontext() if cached else keycache.caches_disabled():
            sealed = seal_tickets_cached(items)
            again = seal_tickets_cached(items)
        assert sealed == self._expected(items)
        assert again == sealed
        if not cached:
            assert keycache.skeleton_stats()["size"] == 0
            return
        # What the miss left in the cache is exactly what the oracle
        # derives for the prefix.
        ticket, key = items[0][:2]
        plain = ticket.to_bytes()
        cut = (len(plain) - 28) & ~0x7
        cached_state = keycache.skeleton_get(
            (key.key_bytes, len(plain), plain[:cut])
        )
        assert tuple(cached_state) == seal_prefix_state(
            key, len(plain), plain[:cut]
        )

    def test_same_prefix_later_in_the_batch_counts_as_a_hit(self):
        keycache.reset_stats()
        items = self._tickets(1) * 8
        assert seal_tickets_cached(items) == self._expected(items)
        stats = keycache.skeleton_stats()
        assert (stats["miss"], stats["hit"]) == (1, 7)

    def test_hits_misses_and_reserved_entries_share_a_run(self, monkeypatch):
        """A warm pair, a cold pair and the cold pair again — its entry
        reserved but still empty — in one batch: one nested seal, the
        same bytes with numpy absent."""
        warm, cold = self._tickets(2)
        seal_tickets_cached([warm])
        items = [warm, cold, cold, warm] * 2
        keycache.reset_stats()
        want = self._expected(items)
        assert seal_tickets_cached(items) == want
        stats = keycache.skeleton_stats()
        # The first ``cold`` misses; its repeats find the reserved entry
        # (a hit that is still empty, so they ride whole beside it).
        assert (stats["miss"], stats["hit"]) == (1, 7)
        keycache.invalidate_skeletons()
        monkeypatch.setattr(des_simd, "_np", None)
        assert seal_tickets_cached(items) == want
        assert seal_tickets_cached([]) == ([], [])


class TestWorkCountGate:
    """The deterministic half of the perf gate: no wall clock, only the
    cipher's own block counter against the message lengths, and how
    often each kernel — and each of its bulk gathers — was entered."""

    @staticmethod
    def _serve_counted(realm, wires, src, monkeypatch):
        """Serve ``wires`` as one buffer: ``(replies, calls, blocks on
        the lanes)``, ``calls`` counting every way into the single-lane
        kernel (``int``), the one-pass kernel (``wide``), the run kernel
        (``run``) and the bulk IP/FP gathers both share."""
        from repro.crypto.modes import interleaved_blocks

        calls = collections.Counter()

        def counted(name, kernel):
            def wrapper(*args):
                calls[name] += 1
                return kernel(*args)
            return wrapper

        monkeypatch.setattr(des, "crypt_int", counted("int", des.crypt_int))
        monkeypatch.setattr(modes, "crypt_int", counted("int", modes.crypt_int))
        for name, kernel in (
            ("wide", "crypt_wide"), ("run", "pcbc_encrypt_wide"),
            ("ip", "_ip"), ("fp", "_fp"),
        ):
            monkeypatch.setattr(
                des_simd, kernel, counted(name, getattr(des_simd, kernel))
            )
        before = interleaved_blocks()
        replies = realm.kdc.process_request_buffer(pack_frames(wires), src)
        on_lanes = interleaved_blocks() - before
        monkeypatch.undo()
        return replies, calls, on_lanes

    @staticmethod
    def _sealed_blocks(replies, reply_keys):
        """Blocks sealed into ``replies``: every body and its ticket."""
        from repro.core.messages import KdcReply

        sealed = 0
        for reply, key in zip(replies, reply_keys):
            mtype, message = decode_message(reply)
            assert isinstance(message, KdcReply), mtype
            sealed += len(message.sealed_body) + len(message.open(key).ticket)
        return sealed // 8

    def test_nine_tenths_of_a_cold_buffers_blocks_ride_the_lanes(
        self, monkeypatch
    ):
        """The name is ISSUE 12's bound; since ISSUE 19 the buffer rides
        whole — every message block, every database key, every session
        key — and the single-lane kernel is never entered."""
        if not des_simd.available():
            pytest.skip("numpy not available; no block rides the lanes")
        n = 64
        realm, _xkey = build_tgs_realm(n_users=n)
        src = realm.workstation().host.address
        now = realm.net.clock.now()
        tgs_key = realm.db.principal_key(tgs_principal(REALM))
        gen = KeyGenerator(seed=b"work-count")
        wires, reply_keys, request_bytes = [], [], 0
        for u in range(n):
            wires.append(as_wire(f"user{u}"))
            reply_keys.append(string_to_key(f"pw{u}"))
            user = Principal(f"user{u}", "", REALM)
            session = gen.session_key_bytes()
            request = tgs_request(
                crafted_tgt(tgs_key, user, src, now, 3600.0, session),
                session, user, src, now,
            )
            wires.append(encode_message(MessageType.TGS_REQ, request))
            reply_keys.append(DesKey.from_bytes(session, allow_weak=True))
            request_bytes += len(request.tgt) + len(request.authenticator)

        keycache.invalidate_skeletons()
        unseal_cache = realm.db.master_key._unseal_cache
        known_blobs = len(unseal_cache)
        replies, calls, on_lanes = self._serve_counted(
            realm, wires, src, monkeypatch
        )

        # PR 18's commit: about 300 single-lane blocks per buffer — the
        # 128 session keys and every cold database key, one at a time.
        assert calls["int"] == 0
        # 2 passes unseal the request side, 1 the database keys, 1 draws
        # the session keys; the parent commit sealed in 16 + 30 more, a
        # pass per block step — now 2 runs, each one bulk IP and one
        # bulk FP however many steps it has.
        assert (calls["wide"], calls["run"]) == (4, 2)
        assert calls["ip"] == calls["fp"] == 6

        # Every user's key and the service's were unsealed cold, three
        # blocks a blob; every ticket took one block of the key stream.
        cold_blobs = len(unseal_cache) - known_blobs
        assert cold_blobs == n + 1
        total = (
            request_bytes // 8 + self._sealed_blocks(replies, reply_keys)
            + 3 * cold_blobs + 2 * n
        )
        # PR 18's commit: 0.9 of the message blocks, none of the rest.
        assert on_lanes == total

    def test_a_cold_batch_of_eight_logins_fills_the_lanes(self, monkeypatch):
        """A queued KDC's batch (ISSUE 20; 0 blocks on the lanes at the
        parent commit): 8 first logins, names of two lengths, every key
        and skeleton cold.  Tickets and reply heads share the first run,
        the reply tails make the second; what a run's ragged end leaves
        finishes single-lane, beside the database keys and the draw —
        both below the one-pass threshold."""
        if not des_simd.available():
            pytest.skip("numpy not available; no block rides the lanes")
        realm, _xkey = build_tgs_realm(n_users=16)
        src = realm.workstation().host.address
        users = range(5, 13)  # user5 … user12
        wires = [as_wire(f"user{u}", timestamp=float(u)) for u in users]
        keycache.invalidate_skeletons()
        replies, calls, on_lanes = self._serve_counted(
            realm, wires, src, monkeypatch
        )
        sealed = self._sealed_blocks(
            replies, [string_to_key(f"pw{u}") for u in users]
        )
        assert on_lanes >= 0.9 * sealed
        # Two runs; IP and FP gathered once a run, not twice a step.
        assert (calls["run"], calls["wide"]) == (2, 0)
        assert (calls["ip"], calls["fp"]) == (2, 2)
        # 9 cold database keys of three blocks, 8 session keys, the tails.
        assert calls["int"] == 9 * 3 + 8 + (sealed - on_lanes)
