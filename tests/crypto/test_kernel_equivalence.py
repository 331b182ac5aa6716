"""Every DES kernel and batch entry point computes what the oracle does.

``tests/crypto/reference_des.py`` is the loop-form DES, the byte-path
modes and the seal frame that the hot paths replaced.  One hypothesis
property per entry point (:data:`ENTRIES`) draws a batch — its size on a
drawn side of the entry's threshold (``WIDE_MIN_BLOCKS`` blocks for the
one-pass shapes, ``WIDE_MIN_MESSAGES`` messages for the sealing runs),
per-lane keys or one shared key, ragged lengths, and corrupted items
where the entry refuses some — and checks every output byte and every
refusal against the oracle, with numpy present and absent.

Which kernel carries the work, and how much of it, is not pinned here:
the count gate, ``tests/integration/test_trajectory.py``, holds the
calls and wide-lane blocks per op of the ledger's workloads to the last
row of ``benchmarks/trajectory.json``.

The master key's unseal cache (the one holder of the principal keys it
unseals), the ``string_to_key`` memo, the KDC's own skeleton cache and
the expanded kernel tables are checked here too.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import (
    SEAL_START,
    DesKey,
    DesKeyError,
    IntegrityError,
    Mode,
    des_simd,
    keycache,
    pcbc_decrypt_many,
    pcbc_encrypt_many,
    seal,
    seal_many,
    seal_nested_many,
    seal_resume_many,
    sealed_prefix_state,
    unseal,
    unseal_many,
)
from repro.crypto.des import _SPLIT_SCHEDULE as split, _key_schedule, crypt_int
from repro.crypto.modes import (
    WIDE_MIN_BLOCKS,
    WIDE_MIN_MESSAGES,
    cbc_decrypt,
    cbc_encrypt,
    ecb_decrypt,
    ecb_encrypt,
    interleaved_blocks,
    pcbc_decrypt,
    pcbc_encrypt,
)
from repro.crypto.string2key import string_to_key
from repro.database import MasterKey
from repro.netsim import Network
from repro.realm import Realm
from tests.crypto import reference_des
from tests.crypto.reference_des import (
    cbc_decrypt_ref,
    cbc_encrypt_ref,
    crypt_int_ref,
    ecb_decrypt_ref,
    ecb_encrypt_ref,
    frame_ref,
    key_schedule_ref,
    pcbc_decrypt_ref,
    pcbc_encrypt_ref,
    seal_prefix_state,
    seal_ref,
    unseal_ref,
)


def _key(rng):
    return DesKey(rng.randbytes(8), allow_weak=True)


def _keys(rng, count, shared):
    """``count`` keys: distinct, or one object ``count`` times."""
    return [_key(rng)] * count if shared else [_key(rng) for _ in range(count)]


def _split(rng, blocks):
    """``blocks`` cut into one to eleven messages, empty ones included."""
    cuts = sorted(rng.randrange(blocks + 1) for _ in range(rng.randrange(11)))
    bounds = [0, *cuts, blocks]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def _corrupt(rng, key, blob, payload, how=None):
    """``(key, blob)`` spoilt one way (``how``, or a drawn one): a wrong
    key, a flipped bit, a block short, three bytes short (misaligned),
    one block left, or the frame sealed with nonzero padding."""
    how = rng.randrange(6) if how is None else how
    if how == 0:
        return _key(rng), blob
    if how == 1:
        bent = bytearray(blob)
        bit = rng.randrange(8 * len(blob))
        bent[bit // 8] ^= 0x80 >> (bit % 8)
        return key, bytes(bent)
    if how in (2, 3, 4):
        return key, (blob[:-8], blob[:-3], blob[:8])[how - 2]
    pad = (-len(payload)) % 8
    header = reference_des._header_ref(len(payload))
    return key, pcbc_encrypt_ref(
        key, header + payload + b"\x01" * pad + b"ATHENA88"
    )


def _opened_alike(items):
    """``unseal_many(items)`` is the oracle's ``unseal_ref`` per item and
    ``unseal`` one at a time: the same bytes, and a refusal exactly
    where the oracle refuses — the same error as ``unseal`` raises, kept
    without a traceback."""
    for (key, blob), got in zip(items, unseal_many(items)):
        try:
            want = unseal_ref(key, blob)
        except ValueError:
            assert isinstance(got, IntegrityError)
            assert got.__traceback__ is None
            with pytest.raises(IntegrityError) as raised:
                unseal(key, blob)
            assert str(raised.value) == str(got)
        else:
            assert got == want == unseal(key, blob)


# -- one check per entry point: (rng, batch size, shared key) ----------------


def _kernels(rng, n, shared):
    """``crypt_int``, and with numpy ``crypt_wide``, on ``n`` lanes of
    alternating encrypting and decrypting schedules."""
    raws = [rng.randbytes(8)] * n if shared else [rng.randbytes(8) for _ in range(n)]
    steps = [-1 if lane % 2 else 1 for lane in range(n)]
    schedules = [split(_key_schedule(raw))[::s] for raw, s in zip(raws, steps)]
    oracle = [key_schedule_ref(raw)[::s] for raw, s in zip(raws, steps)]
    blocks = [rng.getrandbits(64) for _ in range(n)]
    want = [crypt_int_ref(b, sk) for b, sk in zip(blocks, oracle)]
    assert [crypt_int(b, sk) for b, sk in zip(blocks, schedules)] == want
    if des_simd.available():
        np, km = des_simd._np, des_simd.keymat(schedules)
        for order in ("<u8", ">u8"):  # coerced on entry
            out = des_simd.crypt_wide(np.array(blocks, dtype=order), km)
            assert out.tolist() == want


def _run_kernel(rng, n, shared):
    """``des_simd.pcbc_encrypt_wide`` on ``n`` ragged lanes, longest
    first as ``modes`` hands them over: per-lane keys or one ``(16, 1)``
    column, and whatever the run leaves below a finished lane ignored."""
    if not des_simd.available():
        pytest.skip("numpy not available; wide path disabled")
    np = des_simd._np
    lens = sorted((rng.randint(1, 12) for _ in range(n)), reverse=True)
    keys = _keys(rng, n, shared)
    km = des_simd.keymat([split(k._schedule) for k in (keys[:1] if shared else keys)])
    plain = np.array(
        [[rng.getrandbits(64) for _ in lens] for _ in range(lens[0])], dtype="<u8"
    )
    chains = np.array([rng.getrandbits(64) for _ in lens], dtype="<u8")
    running = [sum(m > step for m in lens) for step in range(lens[0])]
    kept = plain.copy()
    out = des_simd.pcbc_encrypt_wide(plain, chains, km, running)
    assert (plain == kept).all()  # the caller's matrix is read, not written
    for lane, (key, m) in enumerate(zip(keys, lens)):
        data = plain[:m, lane].astype(">u8").tobytes()
        iv = int(chains[lane]).to_bytes(8, "big")
        assert out[:m, lane].astype(">u8").tobytes() == pcbc_encrypt_ref(key, data, iv)


def _one_message(rng, n, shared):
    """One message of ``n`` blocks through every single-message mode and
    every ``seal`` mode; its seal opened by ``unseal`` and by
    ``unseal_many`` of one alike, spoilt or not."""
    key, iv, data = _key(rng), rng.randbytes(8), rng.randbytes(8 * n)
    assert ecb_encrypt(key, data) == ecb_encrypt_ref(key, data)
    assert ecb_decrypt(key, data) == ecb_decrypt_ref(key, data)
    assert cbc_encrypt(key, data, iv) == cbc_encrypt_ref(key, data, iv)
    assert cbc_decrypt(key, data, iv) == cbc_decrypt_ref(key, data, iv)
    assert pcbc_encrypt(key, data, iv) == pcbc_encrypt_ref(key, data, iv)
    assert pcbc_decrypt(key, data, iv) == pcbc_decrypt_ref(key, data, iv)
    payload = data[: max(0, 8 * (n - 2) - rng.randrange(8))]
    frame = frame_ref(payload)
    for mode, sealed in (
        (Mode.PCBC, pcbc_encrypt_ref(key, frame, iv)),
        (Mode.CBC, cbc_encrypt_ref(key, frame, iv)),
        (Mode.ECB, ecb_encrypt_ref(key, frame)),
    ):
        assert seal(key, payload, iv, mode) == sealed
        assert unseal(key, sealed, iv, mode) == payload
    blob = seal_ref(key, payload)
    spoilt = [_corrupt(rng, key, blob, payload, how) for how in range(6)]
    _opened_alike([(key, blob), *spoilt])
    if len(payload) % 8:
        assert str(unseal_many(spoilt[-1:])[0]) == (
            "nonzero padding: message corrupted in transit"
        )


def _pcbc_encrypt_many(rng, n, shared):
    """``n`` messages of 0 to 7 blocks under one non-zero IV."""
    iv = rng.randbytes(8)
    items = [(k, rng.randbytes(8 * rng.randrange(8))) for k in _keys(rng, n, shared)]
    assert pcbc_encrypt_many(items, iv) == [
        pcbc_encrypt_ref(key, data, iv) for key, data in items
    ]


def _pcbc_decrypt_many(rng, n, shared):
    """``n`` blocks in all, cut into messages (empty ones included)."""
    iv, lens = rng.randbytes(8), _split(rng, n)
    items = [(k, rng.randbytes(8 * m)) for k, m in zip(_keys(rng, len(lens), shared), lens)]
    assert pcbc_decrypt_many(items, iv) == [
        pcbc_decrypt_ref(key, data, iv) for key, data in items
    ]


def _seal_many(rng, n, shared):
    """``n`` messages sealed, then opened again with a third spoilt."""
    items = [(k, rng.randbytes(rng.randrange(60))) for k in _keys(rng, n, shared)]
    sealed = seal_many(items)
    assert sealed == [seal_ref(key, data) for key, data in items]
    _opened_alike([
        _corrupt(rng, key, blob, data) if rng.random() < 0.3 else (key, blob)
        for (key, data), blob in zip(items, sealed)
    ])


def _unseal_many(rng, n, shared):
    """``n`` blocks in all: seals of the drawn lengths, the one- and
    zero-block items refused before the pass, a third of the rest
    spoilt."""
    items, lens = [], _split(rng, n)
    for key, blocks in zip(_keys(rng, len(lens), shared), lens):
        payload = rng.randbytes(max(0, 8 * (blocks - 2) - rng.randrange(8)))
        blob = seal_ref(key, payload)[: 8 * blocks]
        if blocks > 1 and rng.random() < 0.3:
            key, blob = _corrupt(rng, key, blob, payload)
        items.append((key, blob))
    _opened_alike(items)


def _seal_resume_many(rng, n, shared):
    """``n`` split seals, each resumed from the oracle's state at a drawn
    cut (the whole message, or nothing left to seal, included) — and
    the state read off each finished seal is the oracle's."""
    jobs, cases = [], []
    for key in _keys(rng, n, shared):
        payload = rng.randbytes(rng.randrange(120))
        cut = 8 * rng.randrange(len(payload) // 8 + 1)
        state = seal_prefix_state(key, len(payload), payload[:cut])
        if cut == 0 and rng.random() < 0.5:
            state = SEAL_START
        jobs.append((key, state, payload[cut:]))
        cases.append((key, payload, cut))
    sealed = seal_resume_many(jobs)
    for (key, payload, cut), blob in zip(cases, sealed):
        assert blob == seal_ref(key, payload)
        assert sealed_prefix_state(payload, blob, cut) == seal_prefix_state(
            key, len(payload), payload[:cut]
        )


def _seal_nested_many(rng, n, shared):
    """``n`` nests ``seal(outer, head + seal(inner, …))``: heads of 0 to
    40 bytes, inner messages whole or resumed."""
    items, want = [], []
    for inner_key, outer_key in zip(_keys(rng, n, shared), _keys(rng, n, shared)):
        inner, head = rng.randbytes(rng.randrange(120)), rng.randbytes(rng.randrange(41))
        cut = 8 * rng.randrange(len(inner) // 8 + 1) if rng.random() < 0.5 else 0
        state = seal_prefix_state(inner_key, len(inner), inner[:cut]) if cut else SEAL_START
        blob = seal_ref(inner_key, inner)
        items.append((inner_key, state, inner[cut:], outer_key, head))
        want.append((blob, seal_ref(outer_key, head + blob)))
    inner, outer = seal_nested_many(items)
    assert list(zip(inner, outer)) == want


#: entry point -> (its check, its threshold, runs without numpy)
ENTRIES = {
    "kernels": (_kernels, WIDE_MIN_BLOCKS, True),
    "run_kernel": (_run_kernel, WIDE_MIN_MESSAGES, False),
    "one_message": (_one_message, WIDE_MIN_BLOCKS, True),
    "pcbc_encrypt_many": (_pcbc_encrypt_many, WIDE_MIN_MESSAGES, True),
    "pcbc_decrypt_many": (_pcbc_decrypt_many, WIDE_MIN_BLOCKS, True),
    "seal_many": (_seal_many, WIDE_MIN_MESSAGES, True),
    "unseal_many": (_unseal_many, WIDE_MIN_BLOCKS, True),
    "seal_resume_many": (_seal_resume_many, WIDE_MIN_MESSAGES, True),
    "seal_nested_many": (_seal_nested_many, WIDE_MIN_MESSAGES, True),
}

#: Batch sizes on each side of a threshold ``t``.
SIDES = {
    "below": lambda t: st.integers(1, t - 1),
    "astride": lambda t: st.sampled_from([t - 1, t, t + 1, 2 * t - 1, 2 * t, 2 * t + 1]),
    "above": lambda t: st.integers(t + 1, 5 * t),
}


@pytest.mark.parametrize("entry, side, numpy", [
    pytest.param(entry, side, numpy, id=f"{entry}-{side}-{'numpy' if numpy else 'no-numpy'}")
    for entry, (_check, _t, bare) in ENTRIES.items()
    for side in SIDES
    for numpy in ((True, False) if bare else (True,))
])
@given(data=st.data())
@settings(max_examples=6, deadline=None)
def test_entry_point_is_the_oracle(entry, side, numpy, data):
    """Without numpy nothing rides the lanes, and the bytes are the same."""
    check, threshold, _bare = ENTRIES[entry]
    n = data.draw(SIDES[side](threshold), label="batch")
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    shared = data.draw(st.booleans(), label="shared key")
    if numpy:
        check(rng, n, shared)
        return
    before = interleaved_blocks()
    with mock.patch.object(des_simd, "_np", None):
        check(rng, n, shared)
    assert interleaved_blocks() == before


def test_empty_batches_and_misaligned_input():
    """Empty batches are empty; ECB takes any buffer; a message that is
    not whole blocks is refused, never joined to a neighbour."""
    key = DesKey(bytes.fromhex("133457799BBCDFF1"))
    assert pcbc_encrypt_many([]) == pcbc_decrypt_many([]) == unseal_many([]) == []
    assert seal_nested_many([]) == ([], []) and ecb_encrypt(key, b"") == b""
    data = bytes(range(256)) + bytes(8)
    for buffer in (bytearray(data), memoryview(data)):
        assert ecb_encrypt(key, buffer) == ecb_encrypt_ref(key, data)
    with pytest.raises(ValueError, match="plaintext length 260"):
        ecb_encrypt(key, data[:260])
    with pytest.raises(ValueError):
        pcbc_decrypt(key, b"123456789")
    items = [(key, bytes(40))] * 32 + [(key, b"half")] * 2
    with pytest.raises(ValueError, match="plaintext length 4"):
        pcbc_encrypt_many(items)
    with pytest.raises(ValueError, match="ciphertext length 4"):
        pcbc_decrypt_many(items)


class TestKeyScheduleCache:
    @pytest.fixture(autouse=True)
    def _clean_cache(self):
        keycache.clear()
        keycache.reset_stats()
        yield
        keycache.clear()
        keycache.reset_stats()

    @staticmethod
    def unsealer(raw, allow_weak=False):
        """A fresh master key and ``raw`` sealed under it, as the
        database stores a principal's key."""
        master = MasterKey.from_password("the-master-password")
        return master, master.seal_key(DesKey(raw, allow_weak))

    def test_unseal_cache_reuses_the_schedule(self):
        master, blob = self.unsealer(bytes.fromhex("133457799BBCDFF1"))
        first = master.unseal_key(blob)
        second = master.unseal_key(blob)
        assert first is second
        assert master.schedules == 1

    def test_unseal_schedules_with_allow_weak(self):
        """A weak key that reached the database still unseals: the
        master key schedules with ``allow_weak``, where a strict
        ``DesKey`` refuses the same bytes."""
        raw = bytes.fromhex("0101010101010101")
        master, blob = self.unsealer(raw, allow_weak=True)
        with pytest.raises(DesKeyError, match="weak"):
            DesKey(raw)
        assert master.unseal_key(blob).key_bytes == raw
        assert master.schedules == 1

    def test_unsealed_equals_direct_construction(self):
        raw = bytes.fromhex("0123456789ABCDEF")
        master, blob = self.unsealer(raw, allow_weak=True)
        cached = master.unseal_key(blob)
        direct = DesKey(raw, allow_weak=True)
        assert cached == direct
        assert cached._schedule == direct._schedule
        # Another master key holding the same principal key schedules
        # its own: no schedule is shared through a process-wide cache.
        other, other_blob = self.unsealer(raw, allow_weak=True)
        assert other.unseal_key(other_blob) is not cached
        assert master.schedules == other.schedules == 1

    def test_lru_evicts_oldest(self):
        small = keycache._LruCache(2)
        small.put("a", 1)
        small.put("b", 2)
        assert small.get("a") == 1  # refresh "a": "b" is now oldest
        small.put("c", 3)
        assert small.get("b") is None
        assert small.get("a") == 1 and small.get("c") == 3

    def test_caches_disabled_reschedules_unseals(self):
        master, blob = self.unsealer(bytes.fromhex("133457799BBCDFF1"))
        warm = master.unseal_key(blob)
        with keycache.caches_disabled():
            assert not keycache.caching_enabled()
            a = master.unseal_key(blob)
            b = master.unseal_key(blob)
            assert a == b == warm
            assert len({id(a), id(b), id(warm)}) == 3  # each re-schedules
            assert master.schedules == 3
        assert keycache.caching_enabled()
        # The unseal cache was bypassed, not emptied: the warm key is back.
        assert master.unseal_key(blob) is warm
        assert master.schedules == 3

    def test_string_to_key_is_memoized(self):
        keycache.reset_stats()
        k1 = string_to_key("hunter2", "ATHENA.MIT.EDU")
        k2 = string_to_key("hunter2", "ATHENA.MIT.EDU")
        assert k1 is k2
        assert keycache.stats()["hit"] >= 1
        # Different salt, different derivation.
        k3 = string_to_key("hunter2", "LCS.MIT.EDU")
        assert k3 is not k1


class TestSkeletonCache:
    """Each KDC keeps its own sealed-ticket skeletons, built when it
    attaches and bypassed by the keycache switch; only the hit/miss
    tally is process-wide."""

    @staticmethod
    def _realm():
        realm = Realm(Network(seed=5), "ATHENA.MIT.EDU")
        for user in ("jis", "bcn"):
            realm.add_user(user, f"{user}-pw")
        return realm

    @staticmethod
    def _login(realm, user):
        realm.workstation().client.kinit(user, f"{user}-pw")

    def test_put_get_and_stats(self):
        realm = self._realm()
        keycache.reset_stats()
        self._login(realm, "jis")
        self._login(realm, "bcn")  # a TGT of the same length: resumed
        assert len(realm.shards[0].kdc._skeletons) == 1
        assert keycache.skeleton_stats() == {"hit": 1, "miss": 1}
        assert realm.net.metrics.total("kdc.skeleton_hits_total") == 1

    def test_caches_disabled_bypasses_skeletons(self):
        realm = self._realm()
        keycache.reset_stats()
        with keycache.caches_disabled():
            self._login(realm, "jis")
            self._login(realm, "bcn")
        assert len(realm.shards[0].kdc._skeletons) == 0
        assert keycache.skeleton_stats() == {"hit": 0, "miss": 0}
        self._login(realm, "jis")
        assert len(realm.shards[0].kdc._skeletons) == 1

    def test_a_restart_drops_every_skeleton(self):
        realm = self._realm()
        self._login(realm, "jis")
        kdc = realm.shards[0].kdc
        assert len(kdc._skeletons) == 1
        keycache.clear()  # the process-wide caches are not the KDC's
        assert len(kdc._skeletons) == 1
        realm.net.crash_host(realm.shards[0].master_host.name, downtime=1.0)
        realm.net.runtime.run_for(2.0)
        assert len(kdc._skeletons) == 0  # the restarted KDC starts cold


def _fips_and_weak_key_checks(crypt):
    """``crypt(block, subkeys) -> block`` passes the FIPS 46 worked
    example and the weak-key involution ``E_k(E_k(x)) == x``."""
    subkeys = split(_key_schedule(bytes.fromhex("133457799BBCDFF1")))
    assert crypt(0x0123456789ABCDEF, subkeys) == 0x85E813540F0AB405
    rng = random.Random(46)
    for weak in ("0101010101010101", "fefefefefefefefe",
                 "1f1f1f1f0e0e0e0e", "e0e0e0e0f1f1f1f1"):
        subkeys = split(_key_schedule(bytes.fromhex(weak)))
        for _ in range(5):
            block = rng.getrandbits(64)
            assert crypt(crypt(block, subkeys), subkeys) == block


class TestExpandedRepresentation:
    """The hot-path tables hold the oracle's own E and SP, composed: the
    Feistel halves stay E-expanded from IP to FP, so E is folded into
    the SP-pair table outputs and read back out of the FP table inputs."""

    def test_sp_pair_tables_are_e_of_the_oracle_sp_rows(self):
        from repro.crypto import des
        from repro.crypto.bits import apply_permutation

        pairs = (des._SP01, des._SP23, des._SP45, des._SP67)
        for n, table in enumerate(pairs):
            hi, lo = reference_des._SP[2 * n], reference_des._SP[2 * n + 1]
            assert len(table) == 4096
            for i, value in enumerate(table):
                assert value == apply_permutation(
                    reference_des._E_C, hi[i >> 6] | lo[i & 63]
                )

    @given(st.integers(min_value=0, max_value=(1 << 32) - 1))
    @settings(max_examples=200)
    def test_real_bits_read_back_out_of_the_expansion(self, half):
        from repro.crypto import des
        from repro.crypto.bits import apply_permutation

        expanded = apply_permutation(reference_des._E_C, half)
        read_back = 0
        for shift in (36, 24, 12, 0):
            read_back = (read_back << 8) | des._real_bits(
                (expanded >> shift) & 4095
            )
        assert read_back == half

    def test_fips_vector_and_weak_key_involution_single_lane(self):
        _fips_and_weak_key_checks(crypt_int)

    def test_fips_vector_and_weak_key_involution_wide(self):
        if not des_simd.available():
            pytest.skip("numpy not available; wide path disabled")

        def crypt(block, subkeys):
            out = des_simd.crypt_wide(
                des_simd._np.array([block], dtype=des_simd._np.uint64),
                des_simd.keymat([subkeys]),
            )
            return out.tolist()[0]

        _fips_and_weak_key_checks(crypt)
