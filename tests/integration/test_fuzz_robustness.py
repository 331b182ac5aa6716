"""Robustness: every network-facing server survives hostile bytes.

An open network delivers arbitrary datagrams to every port.  No server
may crash, hang, or corrupt state on malformed input — each must answer
with a protocol error (or drop) and keep serving legitimate clients.

The seeded-mutation classes at the bottom target the propagation
(kprop/kpropd, and the shard-transfer port a range move streams to) and
administration (KDBM) planes specifically: they take
*valid* wire messages, apply deterministic bit flips / truncations /
splices, and require typed protocol errors only — never ``struct.error``
or ``IndexError`` leaking out of a decoder.

Mutation smoke-check (run by hand when touching these classes): making
``repro.encode.structfmt._short_read`` return instead of raise — so a
short fixed-width run falls through to raw ``struct.error`` — fails 15
tests here, among them ``test_decoders_raise_typed_errors_only``,
``test_kdbm_request_decoder_is_typed``,
``test_kpropd_survives_mutated_transfers`` and
``test_range_receiver_never_crashes_on_random_bytes``.  The suite
demonstrably detects an untyped error path, not just total crashes.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps.hesiod import HesiodServer
from repro.apps.nfs import AuthMode, MountDaemon, NfsServer
from repro.apps.pop import PopServer
from repro.apps.register import RegisterServer
from repro.apps.sms import SmsServer
from repro.netsim import Network, NoSuchService
from repro.principal import Principal
from repro.realm import Realm, RealmTopology

REALM = "ATHENA.MIT.EDU"

# Hand-picked nasty payloads plus a few structured-ish prefixes.
NASTY = [
    b"",
    b"\x00",
    b"\xff" * 3,
    b"\x01",                       # bare message-type byte
    b"\x01" + b"\x00" * 100,       # AS_REQ-shaped zeros
    b"\x03" + b"\xff" * 50,        # TGS_REQ-shaped garbage
    b"\x07" + b"A" * 1000,
    bytes(range(256)),
    b"\x01" + (2**31).to_bytes(4, "big") + b"x",   # absurd length prefix
    b"%s%s%s%n",
    "🔥💀".encode("utf-8"),
]


@pytest.fixture(scope="module")
def world():
    net = Network()
    realm = Realm(net, REALM)
    site = realm.shards[0]
    realm.add_user("jis", "jis-pw")
    realm.add_admin("jis", "admin-pw")
    service, _ = realm.add_service("pop", "mailhost")
    nfs_service, _ = realm.add_service("nfs", "fs1")
    mount_service, _ = realm.add_service("mountd", "fs1")

    pop_host = net.add_host("mailhost")
    PopServer(service, realm.srvtab_for(service)).attach(pop_host)

    fs_host = net.add_host("fs1")
    srvtab = realm.srvtab_for(nfs_service, mount_service)
    nfs = NfsServer(mode=AuthMode.MAPPED, service=nfs_service, srvtab=srvtab).attach(fs_host)
    MountDaemon(nfs, mount_service, srvtab).attach(fs_host)

    hesiod_host = net.add_host("hesiod")
    HesiodServer().attach(hesiod_host)
    sms_host = net.add_host("sms")
    SmsServer().attach(sms_host)
    RegisterServer(site.db, sms_host.address).attach(site.master_host)

    attacker = net.add_host("attacker")
    targets = [
        (site.master_host.address, 750),   # KDC
        (site.master_host.address, 751),   # KDBM
        (site.master_host.address, 261),   # register
        (pop_host.address, 109),            # POP
        (fs_host.address, 2049),            # NFS
        (fs_host.address, 635),             # mountd
    ]
    return dict(net=net, realm=realm, attacker=attacker, targets=targets,
                hesiod=hesiod_host, sms=sms_host)


class TestNastyPayloads:
    @pytest.mark.parametrize("payload", NASTY, ids=range(len(NASTY)))
    def test_every_server_survives(self, world, payload):
        attacker = world["attacker"]
        for address, port in world["targets"]:
            # Must not raise anything except clean transport errors; any
            # reply bytes are acceptable, crashes are not.
            try:
                attacker.rpc(address, port, payload)
            except NoSuchService:
                pytest.fail(f"port {port} not bound")
        # Hesiod and SMS parse strict WireStructs; they may raise decode
        # errors at the handler boundary, which the simulated network
        # surfaces to the caller — the *server* stays up either way.
        for address in (world["hesiod"].address, world["sms"].address):
            try:
                attacker.rpc(address, 251 if address == world["hesiod"].address else 260, payload)
            except Exception:
                pass

    def test_servers_still_work_after_the_barrage(self, world):
        """After all that garbage, a legitimate login still succeeds."""
        realm = world["realm"]
        ws = realm.workstation()
        assert ws.client.kinit("jis", "jis-pw") is not None

    @given(st.binary(min_size=0, max_size=300))
    @settings(max_examples=50, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_kdc_never_crashes_on_random_bytes(self, world, payload):
        attacker = world["attacker"]
        reply = attacker.rpc(world["targets"][0][0], 750, payload)
        # The KDC always answers *something* (an error envelope).
        assert isinstance(reply, bytes)

    @given(st.binary(min_size=0, max_size=300))
    @settings(max_examples=50, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_nfs_never_crashes_on_random_bytes(self, world, payload):
        attacker = world["attacker"]
        fs_target = [t for t in world["targets"] if t[1] == 2049][0]
        reply = attacker.rpc(fs_target[0], 2049, payload)
        assert isinstance(reply, bytes)

    def test_kdc_error_counter_reflects_garbage(self, world):
        realm = world["realm"]
        site = realm.shards[0]
        before = site.kdc.errors
        world["attacker"].rpc(site.master_host.address, 750, b"\x01junk")
        assert site.kdc.errors == before + 1


# -- seeded mutation fuzzing of the propagation and admin planes --------------

#: Untyped exceptions a decoder must never leak — a ``struct.error`` or
#: ``IndexError`` escaping means some byte layout was trusted unchecked.
UNTYPED = (AssertionError, IndexError, KeyError, TypeError, UnicodeDecodeError)

FUZZ_SEED = 0x1988
MUTATIONS_PER_MESSAGE = 60


def mutations(data: bytes, seed: int, count: int = MUTATIONS_PER_MESSAGE):
    """Deterministic corruption stream: bit flips, truncations, and
    garbage splices of a valid message.  Same seed → same stream, so a
    failure reproduces exactly."""
    rng = random.Random(seed)
    for _ in range(count):
        roll = rng.random()
        if roll < 0.45 and data:
            flipped = bytearray(data)
            i = rng.randrange(len(flipped))
            flipped[i] ^= 1 << rng.randrange(8)
            yield bytes(flipped)
        elif roll < 0.80:
            yield data[: rng.randrange(len(data) + 1)]
        else:
            i = rng.randrange(len(data) + 1)
            junk = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 9)))
            yield data[:i] + junk + data[i:]


@pytest.fixture(scope="module")
def prop_world():
    """A realm with a slave (so kpropd is live) plus captured-valid
    kprop and KDBM wire messages to mutate."""
    import struct

    from repro.database.journal import OP_PUT
    from repro.kdbm.client import KdbmClient
    from repro.replication.messages import (
        DeltaBody,
        DeltaTransfer,
        PropKind,
        PropTransfer,
        encode_prop_message,
    )

    net = Network(seed=FUZZ_SEED)
    realm = Realm(net, REALM, topology=RealmTopology(slaves_per_shard=1))
    site = realm.shards[0]
    realm.add_user("jis", "jis-pw")
    realm.add_admin("jis", "jis-admin-pw")
    realm.propagate()

    # A valid full-dump transfer, exactly as kprop would send it.
    dump = site.db.dump(now=net.clock.now())
    full_wire = encode_prop_message(
        PropKind.FULL,
        PropTransfer(checksum=site.db.master_key.checksum(dump), dump=dump),
    )

    # A valid delta transfer continuing from seq 0.
    journal = site.db.journal
    body = DeltaBody(
        epoch=journal.epoch,
        from_seq=0,
        to_seq=journal.last_seq,
        time=net.clock.now(),
        entries=list(journal.entries_since(0)),
    )
    delta_wire = encode_prop_message(
        PropKind.DELTA,
        DeltaTransfer(
            checksum=site.db.master_key.checksum(body.to_bytes()),
            body=body.to_bytes(),
        ),
    )
    assert struct is not None  # imported for the error-type checks below

    # A real KDBM request, captured off the wire during a password change.
    kdbm_payloads = []

    def tap(d):
        if d.dst_port == 751:
            kdbm_payloads.append(d.payload)

    net.add_tap(tap)
    ws = realm.workstation()
    KdbmClient(ws.client, site.master_host.address).change_password(
        Principal("jis", "", REALM), "jis-pw", "jis-pw-2"
    )
    net.remove_tap(tap)
    assert kdbm_payloads, "no KDBM datagram captured"

    attacker = net.add_host("prop-attacker")
    return dict(
        net=net,
        realm=realm,
        attacker=attacker,
        full_wire=full_wire,
        delta_wire=delta_wire,
        kdbm_wire=kdbm_payloads[0],
    )


class TestPropagationFuzz:
    """kprop/kpropd: every mutated transfer draws a typed reply and the
    slave database stays intact."""

    @pytest.mark.parametrize("which", ["full_wire", "delta_wire"])
    def test_kpropd_survives_mutated_transfers(self, prop_world, which):
        import struct

        slave = prop_world["realm"].shards[0].slaves[0]
        attacker = prop_world["attacker"]
        before = list(slave.db.store.items())
        for mutant in mutations(prop_world[which], seed=FUZZ_SEED):
            if mutant == prop_world[which]:
                continue  # the identity mutation is a legitimate transfer
            try:
                reply = attacker.rpc(slave.host.address, 754, mutant)
            except (struct.error, *UNTYPED) as exc:  # pragma: no cover
                pytest.fail(f"untyped {type(exc).__name__} leaked: {exc}")
            assert isinstance(reply, bytes) and reply
        # Corruption applied nothing: the slave kept its previous copy.
        assert list(slave.db.store.items()) == before

    def test_propagation_still_works_after_the_barrage(self, prop_world):
        realm = prop_world["realm"]
        realm.add_user("survivor", "pw")
        result = realm.propagate()
        assert result.all_ok
        assert realm.shards[0].slaves[0].db.exists(Principal("survivor", "", REALM))

    @given(st.binary(min_size=0, max_size=400))
    @settings(
        max_examples=50,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_kpropd_never_crashes_on_random_bytes(self, prop_world, payload):
        reply = prop_world["attacker"].rpc(
            prop_world["realm"].shards[0].slaves[0].host.address, 754, payload
        )
        assert isinstance(reply, bytes) and reply

    def test_decoders_raise_typed_errors_only(self, prop_world):
        """Below the daemon: the message decoders themselves must raise
        DecodeError (or parse), never a bare struct/index error."""
        from repro.encode import DecodeError
        from repro.replication.messages import decode_prop_message

        for source in ("full_wire", "delta_wire"):
            for mutant in mutations(prop_world[source], seed=FUZZ_SEED + 1):
                try:
                    decode_prop_message(mutant)
                except DecodeError:
                    pass


@pytest.fixture(scope="module")
def shard_world():
    """A two-shard realm and one valid range-move chunk for shard 1's
    receiver, sealed exactly as a move out of shard 0 would send it:
    the next chunk in order at the live ring epoch."""
    from repro.database.journal import OP_PUT, JournalEntry
    from repro.replication import DeltaBody, PropKind

    net = Network(seed=FUZZ_SEED)
    realm = Realm(
        net, REALM, seed=b"fuzz-shards", topology=RealmTopology(shards=2)
    )
    for i in range(16):
        realm.add_user(f"u{i:02d}", f"u{i:02d}-pw")
    source, target = realm.shards
    moving = [
        (k, v) for k, v in sorted(source.db.store.items())
        if not realm.is_global_key(k) and k != "K.M"
    ][:3]
    assert moving
    body = DeltaBody(
        epoch=realm.ring.epoch, from_seq=0, to_seq=len(moving),
        time=net.clock.now(),
        entries=[
            JournalEntry(seq=i + 1, time=0.0, op=OP_PUT, key=k, value=bytes(v))
            for i, (k, v) in enumerate(moving)
        ],
    )
    return dict(
        net=net,
        realm=realm,
        target=target,
        attacker=net.add_host("shard-attacker"),
        chunk_wire=source.kprop.seal(PropKind.DELTA, body.to_bytes()),
        moving=[k for k, _ in moving],
    )


class TestRangeTransferFuzz:
    """The shard-transfer port (ROADMAP 3(e)): a mutated range chunk
    draws a typed refusal, a failed MAC is audited like kpropd's, and
    the shard master's database — the *journaled* one its slaves follow
    — stays as it was."""

    def test_range_receiver_survives_mutated_chunks(self, shard_world):
        import struct

        from repro.netsim.ports import SHARD_PORT
        from repro.replication import DeltaReply, DeltaStatus

        net, target = shard_world["net"], shard_world["target"]
        wire = shard_world["chunk_wire"]
        before = list(target.db.store.items())
        seq_before = target.db.journal.last_seq
        # With a move open and the chunk next in order, the MAC and the
        # decoders are all that stand between a mutant and the database.
        window = (0, 1)
        target.receiver.open(window)
        mismatches = 0
        for mutant in mutations(wire, seed=FUZZ_SEED + 4):
            if mutant == wire:
                continue  # the identity mutation is the legitimate chunk
            try:
                raw = shard_world["attacker"].rpc(
                    target.master_host.address, SHARD_PORT, mutant
                )
            except (struct.error, *UNTYPED) as exc:  # pragma: no cover
                pytest.fail(f"untyped {type(exc).__name__} leaked: {exc}")
            reply = DeltaReply.from_bytes(raw)
            assert reply.status == DeltaStatus.REJECTED
            mismatches += "checksum mismatch" in reply.text
        target.receiver.close(window)
        assert list(target.db.store.items()) == before
        assert target.db.journal.last_seq == seq_before
        tampered = net.audit.events("tampered_propagation")
        assert mismatches and len(tampered) == mismatches
        assert {e.host for e in tampered} == {target.master_host.name}

    def test_valid_chunk_outside_a_move_is_a_replay(self, shard_world):
        """The unmutated chunk is the master's own — and with no move
        open it can only be a recording."""
        from repro.netsim.ports import SHARD_PORT
        from repro.replication import DeltaReply, DeltaStatus

        net, target = shard_world["net"], shard_world["target"]
        reply = DeltaReply.from_bytes(shard_world["attacker"].rpc(
            target.master_host.address, SHARD_PORT, shard_world["chunk_wire"]
        ))
        assert reply.status == DeltaStatus.NEED_FULL
        assert net.audit.events("replay_detected")[-1].host == (
            target.master_host.name
        )
        assert not any(k in target.db.store for k in shard_world["moving"])

    @given(st.binary(min_size=0, max_size=400))
    @settings(
        max_examples=50,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_range_receiver_never_crashes_on_random_bytes(
        self, shard_world, payload
    ):
        from repro.replication import DeltaReply, DeltaStatus

        raw = shard_world["attacker"].rpc(
            shard_world["target"].master_host.address, 755, payload
        )
        assert DeltaReply.from_bytes(raw).status != DeltaStatus.OK

    def test_move_range_still_works_after_the_barrage(self, shard_world):
        from repro.realm.sharding import hash_point, move_range

        realm = shard_world["realm"]
        key = shard_world["moving"][0]
        point = hash_point(key)
        result = move_range(realm, point, point + 1, 1)
        assert result.moved == result.deleted == 1
        assert key in shard_world["target"].db.store
        ws = realm.workstation()
        ws.client.kinit(key, f"{key}-pw")


class TestKdbmFuzz:
    """The admin port: mutated requests draw error replies (or typed
    errors), never corrupt the database, and the server keeps serving."""

    def test_kdbm_survives_mutated_requests(self, prop_world):
        import struct

        realm = prop_world["realm"]
        site = realm.shards[0]
        attacker = prop_world["attacker"]
        key_before = site.db.principal_key(Principal("jis", "", REALM))
        for mutant in mutations(prop_world["kdbm_wire"], seed=FUZZ_SEED + 2):
            if mutant == prop_world["kdbm_wire"]:
                continue  # replaying the original intact is replay-cache fodder
            try:
                reply = attacker.rpc(site.master_host.address, 751, mutant)
            except (struct.error, *UNTYPED) as exc:  # pragma: no cover
                pytest.fail(f"untyped {type(exc).__name__} leaked: {exc}")
            # An error envelope or an empty drop — both are typed
            # refusals; a crash would have surfaced above.
            assert isinstance(reply, bytes)
        assert site.db.principal_key(Principal("jis", "", REALM)) == key_before

    def test_kdbm_request_decoder_is_typed(self, prop_world):
        from repro.encode import DecodeError
        from repro.kdbm.messages import KdbmRequest

        for mutant in mutations(prop_world["kdbm_wire"], seed=FUZZ_SEED + 3):
            try:
                KdbmRequest.from_bytes(mutant)
            except DecodeError:
                pass

    def test_admin_still_works_after_the_barrage(self, prop_world):
        realm = prop_world["realm"]
        from repro.kdbm.client import KdbmClient

        ws = realm.workstation()
        KdbmClient(ws.client, realm.shards[0].master_host.address).change_password(
            Principal("jis", "", REALM), "jis-pw-2", "jis-pw-3"
        )
        from repro.crypto import string_to_key

        assert realm.shards[0].db.principal_key(
            Principal("jis", "", REALM)
        ) == string_to_key("jis-pw-3")
