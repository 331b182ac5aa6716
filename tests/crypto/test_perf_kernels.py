"""The optimized hot-path kernels are bit-exact against the reference path.

PR 3 rewrote the DES round function (``crypt_int``: 12-bit paired SP
tables, fully unrolled; since ISSUE 13 with both Feistel halves kept in
E-expanded form so the expansion never runs) and moved the block modes
into the integer domain.  The original byte-at-a-time implementations
survive test-side as the oracle (``tests/crypto/reference_des.py``:
``crypt_int_ref`` under its own ``key_schedule_ref``, the ``*_ref`` mode
loops, ``seal_ref``), and this suite pins the two paths against each other — randomized sweeps plus
hypothesis properties — so any future "optimization" that drifts a
single bit fails here, not in a realm.

The key-schedule cache (:mod:`repro.crypto.keycache`) is covered here
too: identity of cached keys, LRU eviction, the disable switch, and
metric attachment.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import DesKey, Mode, keycache, seal, unseal
from repro.crypto.des import crypt_int, _key_schedule
from repro.crypto.modes import (
    cbc_decrypt,
    cbc_encrypt,
    ecb_decrypt,
    ecb_encrypt,
    pcbc_decrypt,
    pcbc_encrypt,
)
from repro.crypto.string2key import string_to_key
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

keys = st.binary(min_size=8, max_size=8).map(
    lambda b: DesKey(b, allow_weak=True)
)
ivs = st.binary(min_size=8, max_size=8)
aligned = st.binary(min_size=8, max_size=128).map(
    lambda b: b + b"\x00" * ((-len(b)) % 8)
)
blocks64 = st.integers(min_value=0, max_value=(1 << 64) - 1)


class TestCryptIntAgainstReference:
    """The unrolled table kernel computes exactly what the loop kernel did."""

    def test_fips_46_vector(self):
        key = DesKey(bytes.fromhex("133457799BBCDFF1"))
        cipher = key.encrypt_block(bytes.fromhex("0123456789ABCDEF"))
        assert cipher.hex() == "85e813540f0ab405"

    @given(st.binary(min_size=8, max_size=8), blocks64)
    @settings(max_examples=60)
    def test_encrypt_matches_reference(self, key_bytes, block):
        assert crypt_int(block, _key_schedule(key_bytes)) == crypt_int_ref(
            block, key_schedule_ref(key_bytes)
        )

    @given(st.binary(min_size=8, max_size=8), blocks64)
    @settings(max_examples=60)
    def test_decrypt_matches_reference(self, key_bytes, block):
        assert crypt_int(
            block, _key_schedule(key_bytes)[::-1]
        ) == crypt_int_ref(block, key_schedule_ref(key_bytes)[::-1])

    def test_seeded_sweep(self):
        """A deterministic thousand-block sweep beyond hypothesis's budget."""
        rng = random.Random(1988)
        for _ in range(1000):
            raw = rng.randbytes(8)
            subkeys = _key_schedule(raw)
            block = rng.getrandbits(64)
            out = crypt_int(block, subkeys)
            assert out == crypt_int_ref(block, key_schedule_ref(raw))
            assert crypt_int(out, subkeys[::-1]) == block


class TestModesAgainstReference:
    """Int-domain mode loops produce byte-identical ciphertext to the
    per-block byte-slicing loops they replaced."""

    @given(keys, aligned)
    @settings(max_examples=30)
    def test_ecb(self, key, data):
        cipher = ecb_encrypt(key, data)
        assert cipher == ecb_encrypt_ref(key, data)
        assert ecb_decrypt(key, cipher) == ecb_decrypt_ref(key, cipher)

    @given(keys, ivs, aligned)
    @settings(max_examples=30)
    def test_cbc(self, key, iv, data):
        cipher = cbc_encrypt(key, data, iv)
        assert cipher == cbc_encrypt_ref(key, data, iv)
        assert cbc_decrypt(key, cipher, iv) == cbc_decrypt_ref(key, cipher, iv)

    @given(keys, ivs, aligned)
    @settings(max_examples=30)
    def test_pcbc(self, key, iv, data):
        cipher = pcbc_encrypt(key, data, iv)
        assert cipher == pcbc_encrypt_ref(key, data, iv)
        assert pcbc_decrypt(key, cipher, iv) == pcbc_decrypt_ref(key, cipher, iv)

    @given(keys, ivs, st.binary(min_size=0, max_size=96))
    @settings(max_examples=30)
    def test_seal_interoperates_across_kernel_swap(self, key, iv, payload):
        """Sealed by production, opened by the oracle, and the other way
        round: both state the same frame and the same PCBC."""
        sealed = seal(key, payload, iv)
        assert sealed == seal_ref(key, payload, iv)
        assert unseal_ref(key, sealed, iv) == payload
        assert unseal(key, seal_ref(key, payload, iv), iv) == payload

    @given(keys, ivs, st.binary(min_size=0, max_size=96))
    @settings(max_examples=30)
    def test_seal_calls_the_kernel_its_mode_names(self, key, iv, payload):
        """``seal``/``unseal`` branch on ``mode``: each branch is the
        oracle's frame under that mode's reference loop."""
        frame = frame_ref(payload)
        expected = {
            Mode.PCBC: pcbc_encrypt_ref(key, frame, iv),
            Mode.CBC: cbc_encrypt_ref(key, frame, iv),
            Mode.ECB: ecb_encrypt_ref(key, frame),
        }
        assert set(expected) == set(Mode)
        for mode, sealed in expected.items():
            assert seal(key, payload, iv, mode) == sealed
            assert unseal(key, sealed, iv, mode) == payload

    def test_misaligned_input_still_rejected(self):
        key = DesKey(bytes.fromhex("0123456789ABCDEF"), allow_weak=True)
        with pytest.raises(ValueError):
            ecb_encrypt(key, b"seven b")
        with pytest.raises(ValueError):
            pcbc_decrypt(key, b"123456789")


class TestKeyScheduleCache:
    @pytest.fixture(autouse=True)
    def _clean_cache(self):
        keycache.clear()
        keycache.reset_stats()
        yield
        keycache.clear()
        keycache.reset_stats()

    def test_from_bytes_reuses_the_schedule(self):
        raw = bytes.fromhex("133457799BBCDFF1")
        first = DesKey.from_bytes(raw)
        second = DesKey.from_bytes(raw)
        assert first is second
        assert keycache.stats() == {"hit": 1, "miss": 1}

    def test_weakness_flag_is_part_of_the_cache_key(self):
        raw = bytes.fromhex("133457799BBCDFF1")
        strict = DesKey.from_bytes(raw)
        lenient = DesKey.from_bytes(raw, allow_weak=True)
        assert strict is not lenient
        assert strict == lenient  # same key bytes, distinct schedule objects

    def test_cached_key_equals_direct_construction(self):
        raw = bytes.fromhex("0123456789ABCDEF")
        cached = DesKey.from_bytes(raw, allow_weak=True)
        direct = DesKey(raw, allow_weak=True)
        assert cached == direct
        assert cached._enc_subkeys == direct._enc_subkeys

    def test_lru_evicts_oldest(self):
        small = keycache._LruCache(2)
        small.put("a", 1)
        small.put("b", 2)
        assert small.get("a") == 1  # refresh "a": "b" is now oldest
        small.put("c", 3)
        assert small.get("b") is None
        assert small.get("a") == 1 and small.get("c") == 3

    def test_caches_disabled_contextmanager(self):
        raw = bytes.fromhex("133457799BBCDFF1")
        DesKey.from_bytes(raw)
        with keycache.caches_disabled():
            assert not keycache.caching_enabled()
            a = DesKey.from_bytes(raw)
            b = DesKey.from_bytes(raw)
            assert a is not b  # every call re-schedules
        assert keycache.caching_enabled()
        # Entering the context cleared the cache: the next call misses.
        before = keycache.stats()["miss"]
        DesKey.from_bytes(raw)
        assert keycache.stats()["miss"] == before + 1

    def test_string_to_key_is_memoized(self):
        keycache.reset_stats()
        k1 = string_to_key("hunter2", "ATHENA.MIT.EDU")
        k2 = string_to_key("hunter2", "ATHENA.MIT.EDU")
        assert k1 is k2
        assert keycache.stats()["hit"] >= 1
        # Different salt, different derivation.
        k3 = string_to_key("hunter2", "LCS.MIT.EDU")
        assert k3 is not k1

    def test_attach_metrics_counts_and_is_idempotent(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        keycache.attach_metrics(registry)
        keycache.attach_metrics(registry)  # second attach: no double count
        raw = bytes.fromhex("0123456789ABCDEF")
        DesKey.from_bytes(raw, allow_weak=True)
        DesKey.from_bytes(raw, allow_weak=True)
        assert registry.total("crypto.keyschedule_total", result="miss") == 1
        assert registry.total("crypto.keyschedule_total", result="hit") == 1


def _fips_and_weak_key_checks(crypt):
    """``crypt(block, subkeys) -> block`` passes the FIPS 46 worked
    example and the weak-key involution ``E_k(E_k(x)) == x``."""
    subkeys = _key_schedule(bytes.fromhex("133457799BBCDFF1"))
    assert crypt(0x0123456789ABCDEF, subkeys) == 0x85E813540F0AB405
    rng = random.Random(46)
    for weak in ("0101010101010101", "fefefefefefefefe",
                 "1f1f1f1f0e0e0e0e", "e0e0e0e0f1f1f1f1"):
        subkeys = _key_schedule(bytes.fromhex(weak))
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
        from repro.crypto import des_simd

        if not des_simd.available():
            pytest.skip("numpy not available; wide path disabled")

        def crypt(block, subkeys):
            out = des_simd.crypt_wide(
                des_simd._np.array([block], dtype=des_simd._np.uint64),
                des_simd.keymat([subkeys]),
            )
            return out.tolist()[0]

        _fips_and_weak_key_checks(crypt)


class TestBatchModes:
    """seal_many/unseal_many and the pcbc_*_many kernels are
    bit-identical to per-message calls, for every batch shape."""

    # 1/2/3: below the sealing threshold, one single-lane run per
    # message; 7/13: ragged runs on the run kernel, tails single-lane.
    @pytest.mark.parametrize("count", [1, 2, 3, 7, 13])
    def test_seal_many_matches_singles(self, count):
        from repro.crypto import seal_many

        rng = random.Random(count)
        items = [
            (
                DesKey(rng.randbytes(8), allow_weak=True),
                rng.randbytes(rng.randrange(0, 220)),
            )
            for _ in range(count)
        ]
        assert seal_many(items) == [seal(k, d) for k, d in items]

    @pytest.mark.parametrize("count", [1, 2, 5, 11])
    def test_unseal_many_roundtrip(self, count):
        from repro.crypto import seal_many, unseal_many

        rng = random.Random(count * 31)
        items = [
            (
                DesKey(rng.randbytes(8), allow_weak=True),
                rng.randbytes(rng.randrange(0, 100)),
            )
            for _ in range(count)
        ]
        sealed = seal_many(items)
        opened = unseal_many(
            [(k, blob) for (k, _d), blob in zip(items, sealed)]
        )
        assert opened == [d for _k, d in items]

    def test_unseal_many_bad_item_does_not_poison_batch(self):
        from repro.crypto import IntegrityError, seal_many, unseal_many

        rng = random.Random(8)
        keys_ = [DesKey(rng.randbytes(8), allow_weak=True) for _ in range(5)]
        datas = [rng.randbytes(40) for _ in range(5)]
        sealed = seal_many(list(zip(keys_, datas)))
        wrong_key = DesKey(rng.randbytes(8), allow_weak=True)
        items = [
            (keys_[0], sealed[0]),
            (wrong_key, sealed[1]),          # wrong key: bad magic
            (keys_[2], sealed[2][:-8]),      # truncated: frame too short
            (keys_[3], sealed[3][:-3]),      # misaligned length
            (keys_[4], sealed[4]),
        ]
        out = unseal_many(items)
        assert out[0] == datas[0] and out[4] == datas[4]
        for i in (1, 2, 3):
            assert isinstance(out[i], IntegrityError)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_pcbc_many_matches_singles(self, data):
        from repro.crypto import pcbc_decrypt_many, pcbc_encrypt_many

        rng = random.Random(data.draw(st.integers(0, 2**32)))
        count = data.draw(st.integers(min_value=1, max_value=6))
        items = [
            (
                DesKey(rng.randbytes(8), allow_weak=True),
                rng.randbytes(8 * rng.randrange(0, 12)),
            )
            for _ in range(count)
        ]
        sealed = pcbc_encrypt_many(items)
        assert sealed == [pcbc_encrypt(k, d) for k, d in items]
        opened = pcbc_decrypt_many(
            [(k, c) for (k, _d), c in zip(items, sealed)]
        )
        assert opened == [d for _k, d in items]

    def test_interleaved_blocks_counter_advances(self, monkeypatch):
        """The counter counts wide-lane blocks, and only those."""
        from repro.crypto import des_simd, seal_many, unseal_many
        from repro.crypto.modes import WIDE_MIN_MESSAGES, interleaved_blocks

        rng = random.Random(2)
        items = [
            (DesKey(rng.randbytes(8), allow_weak=True), rng.randbytes(64))
            for _ in range(WIDE_MIN_MESSAGES)
        ]
        before = interleaved_blocks()
        # One message short of a run: single-lane, not counted.
        sealed = seal_many(items[:-1])
        # 64 data bytes frame to ten blocks: three messages are 30 lanes
        # when unsealing, four are 40.
        pairs = [(key, blob) for (key, _d), blob in zip(items, sealed)]
        unseal_many(pairs[:3])
        assert interleaved_blocks() == before
        if des_simd.available():
            unseal_many(pairs[:4])
            assert interleaved_blocks() == before + 40
            before = interleaved_blocks()
            seal_many(items)
            # All lanes run to the end.
            assert interleaved_blocks() == before + 10 * WIDE_MIN_MESSAGES
        before = interleaved_blocks()
        monkeypatch.setattr(des_simd, "_np", None)
        seal_many(items)  # numpy-less: single-lane, not counted
        unseal_many(pairs)
        assert interleaved_blocks() == before


def _assert_resumed_jobs_match_whole_seals(rng, count, max_len):
    """``count`` split seals, each resumed from the oracle's prefix
    state at a random cut, finish as the whole message's seal."""
    from repro.crypto import seal_resume_many

    jobs, whole = [], []
    for _ in range(count):
        key = DesKey(rng.randbytes(8), allow_weak=True)
        payload = rng.randbytes(rng.randrange(16, max_len))
        cut = rng.randrange(0, len(payload) // 8) * 8
        state = seal_prefix_state(key, len(payload), payload[:cut])
        jobs.append((key, state, payload[cut:]))
        whole.append(seal_ref(key, payload))
    assert seal_resume_many(jobs) == whole


class TestSplitSealing:
    """Skeleton sealing: prefix state + resume == one-shot seal."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_resume_matches_full_seal(self, data):
        from repro.crypto import seal_resume_many

        rng = random.Random(data.draw(st.integers(0, 2**32)))
        key = DesKey(rng.randbytes(8), allow_weak=True)
        payload = rng.randbytes(data.draw(st.integers(0, 160)))
        cut = data.draw(st.integers(0, len(payload) // 8)) * 8
        state = seal_prefix_state(key, len(payload), payload[:cut])
        assert seal_resume_many([(key, state, payload[cut:])]) == [
            seal_ref(key, payload)
        ]

    def test_resume_many_matches_singles(self):
        _assert_resumed_jobs_match_whole_seals(random.Random(77), 7, 120)


class TestSkeletonCache:
    """The sealed-ticket skeleton layer rides the keycache switch."""

    def test_put_get_and_stats(self):
        keycache.clear()
        keycache.reset_stats()
        keycache.skeleton_put(("k", 10, b"p"), (b"cp", 3))
        assert keycache.skeleton_get(("k", 10, b"p")) == (b"cp", 3)
        assert keycache.skeleton_get(("other",)) is None
        stats = keycache.skeleton_stats()
        assert stats["hit"] == 1 and stats["miss"] == 1

    def test_caches_disabled_bypasses_skeletons(self):
        keycache.skeleton_put(("live",), (b"x", 0))
        with keycache.caches_disabled():
            # Disabled: no reads, and writes are dropped.
            assert keycache.skeleton_get(("live",)) is None
            keycache.skeleton_put(("while-off",), (b"y", 1))
        assert keycache.skeleton_get(("while-off",)) is None

    def test_invalidate_drops_everything(self):
        keycache.skeleton_put(("a",), (b"", 0))
        keycache.skeleton_put(("b",), (b"", 0))
        assert keycache.invalidate_skeletons() >= 2
        assert keycache.skeleton_stats()["size"] == 0


class TestWideLanes:
    """The numpy wide-lane kernel (``des_simd``) behind seal_many.

    Sealing runs of >= ``modes.WIDE_MIN_MESSAGES`` messages take the
    vectorized path; these tests pin it bit-exact against the loop
    kernel and the single-lane one, including ragged lengths
    (active-lane shrink + single-lane tails).
    """

    def setup_method(self):
        from repro.crypto import des_simd

        if not des_simd.available():
            pytest.skip("numpy not available; wide path disabled")

    @staticmethod
    def _lanes(rng, count):
        """Per-lane distinct keys, alternating enc/dec schedules:
        production's subkeys, the oracle's, and a block per lane."""
        schedules, oracle = [], []
        for lane in range(count):
            raw = rng.randbytes(8)
            step = -1 if lane % 2 else 1
            schedules.append(_key_schedule(raw)[::step])
            oracle.append(key_schedule_ref(raw)[::step])
        return schedules, oracle, [rng.getrandbits(64) for _ in range(count)]

    def test_crypt_wide_matches_scalar_kernel(self):
        """... and both match the loop kernel, lane by lane."""
        from repro.crypto import des_simd

        np = des_simd._np
        # 1/2: degenerate vectors; 31/32/33: either side of the sealing
        # threshold; 128: a full KDC buffer; 1,024: its 64 TGTs unsealed
        # in one pass.
        for count in (1, 2, 31, 32, 33, 128, 1024):
            schedules, oracle, blocks = self._lanes(
                random.Random(900 + count), count
            )
            want = [crypt_int_ref(b, sk) for b, sk in zip(blocks, oracle)]
            km = des_simd.keymat(schedules)
            out = des_simd.crypt_wide(np.array(blocks, dtype=np.uint64), km)
            assert out.tolist() == want
            assert want == [
                crypt_int(b, sk) for b, sk in zip(blocks, schedules)
            ]
            # Blocks arriving in the other byte order are coerced on entry.
            out = des_simd.crypt_wide(np.array(blocks, dtype=">u8"), km)
            assert out.tolist() == want

    def test_lanes_are_independent(self):
        """A lane's output never depends on its neighbours' blocks or
        keys."""
        from repro.crypto import des_simd

        np = des_simd._np
        rng = random.Random(5)
        raw = rng.randbytes(8)
        subkeys = _key_schedule(raw)
        block = rng.getrandbits(64)
        baseline = crypt_int_ref(block, key_schedule_ref(raw))
        for _ in range(20):
            schedules, _oracle, blocks = self._lanes(rng, 33)
            lane = rng.randrange(33)
            schedules[lane], blocks[lane] = subkeys, block
            out = des_simd.crypt_wide(
                np.array(blocks, dtype=np.uint64),
                des_simd.keymat(schedules),
            )
            assert out.tolist()[lane] == baseline

    def test_seal_many_wide_ragged_lengths(self):
        from repro.crypto import seal_many

        rng = random.Random(10)
        items = [
            (
                DesKey(rng.randbytes(8), allow_weak=True),
                rng.randbytes(rng.randrange(0, 200)),
            )
            for _ in range(41)
        ]
        assert seal_many(items) == [seal(k, d) for k, d in items]

    def test_seal_many_wide_uniform_lengths(self):
        from repro.crypto import seal_many
        from repro.crypto.modes import interleaved_blocks

        rng = random.Random(11)
        items = [
            (DesKey(rng.randbytes(8), allow_weak=True), rng.randbytes(96))
            for _ in range(64)
        ]
        before = interleaved_blocks()
        assert seal_many(items) == [seal(k, d) for k, d in items]
        assert interleaved_blocks() > before

    def test_seal_resume_many_wide(self):
        _assert_resumed_jobs_match_whole_seals(random.Random(12), 35, 160)


# --------------------------------------------------------------------------
# ISSUE 18: the batch cipher lives in arrays, one shape per direction.
#
# Sealing steps a ``(depth, lanes)`` matrix — a lane is a message, and
# since ISSUE 20 the whole run is one call of the run kernel
# (``des_simd.pcbc_encrypt_wide``), wide from ``WIDE_MIN_MESSAGES``
# messages alive per step — and unsealing is one pass over every block
# of every message — a lane is a block, the chain a running xor, wide
# from ``WIDE_MIN_BLOCKS`` blocks.  No run mixes directions, so everything
# below drives the public entry points (``pcbc_*_many``, ``seal_many``,
# ``seal_resume_many``, ``unseal_many``) and is pinned against the loop
# kernel through the byte-path PCBC reference modes.
# --------------------------------------------------------------------------


def _mixed_items(rng, count, max_blocks=14):
    """``count`` messages of random key and length (0 and 1 block
    included), each to be sealed or unsealed at random: ``(seal items,
    unseal items)``."""
    sealing, unsealing = [], []
    for _ in range(count):
        key = DesKey(rng.randbytes(8), allow_weak=True)
        side = unsealing if rng.random() < 0.5 else sealing
        side.append((key, rng.randbytes(8 * rng.randrange(max_blocks + 1))))
    return sealing, unsealing


def _assert_both_directions_match(sealing, unsealing, rng):
    """Each direction's batch, under its own non-zero IV, is the oracle's
    per-message PCBC."""
    from repro.crypto import pcbc_decrypt_many, pcbc_encrypt_many

    iv = rng.randbytes(8)
    assert pcbc_encrypt_many(sealing, iv) == [
        pcbc_encrypt_ref(key, data, iv) for key, data in sealing
    ]
    iv = rng.randbytes(8)
    assert pcbc_decrypt_many(unsealing, iv) == [
        pcbc_decrypt_ref(key, data, iv) for key, data in unsealing
    ]


def _spy_on_crypt_wide(monkeypatch):
    """The lane count of every wide pass made from here on."""
    from repro.crypto import des_simd

    if not des_simd.available():
        pytest.skip("numpy not available; wide path disabled")
    passes = []
    real = des_simd.crypt_wide
    monkeypatch.setattr(
        des_simd, "crypt_wide",
        lambda b, km: passes.append(len(b)) or real(b, km),
    )
    return passes


def _spy_on_sealing_runs(monkeypatch):
    """The lanes alive at each step of every sealing run made on the run
    kernel from here on, one list per run."""
    from repro.crypto import des_simd

    if not des_simd.available():
        pytest.skip("numpy not available; wide path disabled")
    runs = []
    real = des_simd.pcbc_encrypt_wide

    def spy(plain, chains, km, running):
        assert plain.shape == (len(running), len(chains))
        runs.append(list(running))
        return real(plain, chains, km, running)

    monkeypatch.setattr(des_simd, "pcbc_encrypt_wide", spy)
    return runs


def _spy_on_key_matrices(monkeypatch):
    """``(lanes, key matrix shape)`` of every wide pass made from here
    on; stays empty on a host without numpy."""
    from repro.crypto import des_simd

    passes = []
    if des_simd.available():
        real = des_simd.crypt_wide
        monkeypatch.setattr(
            des_simd, "crypt_wide",
            lambda b, km: passes.append((len(b), km.shape)) or real(b, km),
        )
    return passes


def _sealed_batch(rng, payload_lens):
    """One sealed message per payload length: ``(key, blob)`` pairs and
    the payloads."""
    pairs, payloads = [], []
    for n in payload_lens:
        key = DesKey(rng.randbytes(8), allow_weak=True)
        payloads.append(rng.randbytes(n))
        pairs.append((key, seal_ref(key, payloads[-1])))
    return pairs, payloads


class TestDirectionCarryingRunner:
    """Named for the ISSUE 12 runner these cases first pinned; since
    ISSUE 18 a direction is a shape, not a flag on a job, and the cases
    drive the public batch entry points."""

    # 1/2: single-lane per message; 31/32/33: around the one-pass
    # threshold (each direction gets about half); 128: a full KDC buffer.
    @pytest.mark.parametrize("count", [1, 2, 31, 32, 33, 128])
    def test_mixed_directions_ragged_lengths(self, count):
        """A mixed bag of messages to seal and to unseal, 0 to 14 blocks
        long, split by direction — one run never mixes them."""
        rng = random.Random(1200 + count)
        sealing, unsealing = _mixed_items(rng, count)
        _assert_both_directions_match(sealing, unsealing, rng)

    # 5/6/7: astride the sealing threshold, which counts messages;
    # 31/32/33: astride the one-pass threshold, which is not sealing's.
    @pytest.mark.parametrize("lanes", [5, 6, 7, 31, 32, 33])
    def test_a_lane_is_a_message_when_sealing(self, lanes, monkeypatch):
        from repro.crypto import pcbc_encrypt_many
        from repro.crypto.modes import WIDE_MIN_MESSAGES

        passes = _spy_on_crypt_wide(monkeypatch)
        runs = _spy_on_sealing_runs(monkeypatch)
        rng = random.Random(lanes)
        items = [
            (DesKey(rng.randbytes(8), allow_weak=True), rng.randbytes(24))
            for _ in range(lanes)
        ]
        iv = rng.randbytes(8)
        assert pcbc_encrypt_many(items, iv) == [
            pcbc_encrypt_ref(key, data, iv) for key, data in items
        ]
        # One run of three steps, every message a lane; no one-pass call.
        assert runs == ([[lanes] * 3] if lanes >= WIDE_MIN_MESSAGES else [])
        assert passes == []

    @pytest.mark.parametrize("lanes", [31, 32, 33])
    def test_a_lane_is_a_block_when_unsealing(self, lanes, monkeypatch):
        """Four messages (one of them empty) of ``lanes`` blocks in all
        make one pass of ``lanes`` lanes, or none below the threshold."""
        from repro.crypto import pcbc_decrypt_many

        passes = _spy_on_crypt_wide(monkeypatch)
        rng = random.Random(lanes)
        items = [
            (DesKey(rng.randbytes(8), allow_weak=True), rng.randbytes(8 * n))
            for n in (lanes - 20, 0, 1, 19)
        ]
        iv = rng.randbytes(8)
        assert pcbc_decrypt_many(items, iv) == [
            pcbc_decrypt_ref(key, data, iv) for key, data in items
        ]
        assert passes == ([lanes] if lanes >= 32 else [])

    def test_tails_drop_below_threshold_mid_run(self, monkeypatch):
        """40 lanes, 35 of them short: after two wide steps only 5 stay
        active — one fewer than ``WIDE_MIN_MESSAGES`` — so the long
        tails finish on the single-lane kernel, each from its own resume
        chain."""
        from repro.crypto import seal_resume_many
        from repro.crypto.modes import WIDE_MIN_MESSAGES

        assert WIDE_MIN_MESSAGES == 6
        runs = _spy_on_sealing_runs(monkeypatch)
        # Behind a cached header block: bodies of 2, 11, 12 and 13 blocks.
        payload_lens = [8] * 35 + [80, 88, 96, 96, 80]
        rng = random.Random(1212)
        rng.shuffle(payload_lens)
        jobs, whole = [], []
        for n in payload_lens:
            key = DesKey(rng.randbytes(8), allow_weak=True)
            payload = rng.randbytes(n)
            state = seal_prefix_state(key, n, b"")
            jobs.append((key, state, payload))
            whole.append(seal_ref(key, payload))
        assert seal_resume_many(jobs) == whole
        assert runs == [[40, 40]]

    @pytest.mark.parametrize("count", [33, 128])
    def test_numpy_absent(self, count, monkeypatch):
        from repro.crypto import des_simd
        from repro.crypto.modes import interleaved_blocks

        monkeypatch.setattr(des_simd, "_np", None)
        assert not des_simd.available()
        rng = random.Random(77 + count)
        sealing, unsealing = _mixed_items(rng, count)
        before = interleaved_blocks()
        _assert_both_directions_match(sealing, unsealing, rng)
        _assert_resumed_jobs_match_whole_seals(rng, count, 120)
        assert interleaved_blocks() == before

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_property_any_shape(self, data):
        """Sealing, any shape: whole messages under one IV, and split
        seals each from its own resume chain."""
        from repro.crypto import pcbc_encrypt_many

        rng = random.Random(data.draw(st.integers(0, 2**32)))
        count = data.draw(st.integers(min_value=1, max_value=48))
        items = [
            (
                DesKey(rng.randbytes(8), allow_weak=True),
                rng.randbytes(8 * rng.randrange(0, 7)),
            )
            for _ in range(count)
        ]
        iv = rng.randbytes(8)
        assert pcbc_encrypt_many(items, iv) == [
            pcbc_encrypt_ref(key, plain, iv) for key, plain in items
        ]
        _assert_resumed_jobs_match_whole_seals(rng, count, 56)

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_property_any_shape_unsealing(self, data):
        from repro.crypto import pcbc_decrypt_many

        rng = random.Random(data.draw(st.integers(0, 2**32)))
        count = data.draw(st.integers(min_value=1, max_value=48))
        max_blocks = data.draw(st.sampled_from([1, 2, 6, 40]))
        items = [
            (
                DesKey(rng.randbytes(8), allow_weak=True),
                rng.randbytes(8 * rng.randrange(0, max_blocks + 1)),
            )
            for _ in range(count)
        ]
        iv = rng.randbytes(8)
        assert pcbc_decrypt_many(items, iv) == [
            pcbc_decrypt_ref(key, cipher, iv) for key, cipher in items
        ]

    # 5 sealed messages are below the sealing threshold but 35 blocks:
    # they seal single-lane and unseal in one pass.
    @pytest.mark.parametrize("count,wide", [(5, False), (6, True)])
    def test_unseal_many_reaches_the_wide_kernel_like_sealing(
        self, count, wide, monkeypatch
    ):
        from repro.crypto import seal_many, unseal_many

        passes = _spy_on_crypt_wide(monkeypatch)
        runs = _spy_on_sealing_runs(monkeypatch)
        rng = random.Random(count)
        items = [
            (DesKey(rng.randbytes(8), allow_weak=True), rng.randbytes(40))
            for _ in range(count)
        ]
        sealed = seal_many(items)
        assert passes == []
        opened = unseal_many(
            [(key, blob) for (key, _d), blob in zip(items, sealed)]
        )
        assert opened == [d for _k, d in items]
        assert sealed == [seal_ref(k, d) for k, d in items]
        assert runs == ([[count] * 7] if wide else [])
        assert passes == [7 * count]

    def test_misaligned_message_is_refused_not_joined(self):
        """Two 4-byte messages join to one whole block; neither is one."""
        from repro.crypto import pcbc_decrypt_many, pcbc_encrypt_many

        key = DesKey(bytes.fromhex("133457799BBCDFF1"))
        items = [(key, bytes(40))] * 32 + [(key, b"half")] * 2
        with pytest.raises(ValueError, match="plaintext length 4"):
            pcbc_encrypt_many(items)
        with pytest.raises(ValueError, match="ciphertext length 4"):
            pcbc_decrypt_many(items)


class TestIndependentBlocks:
    """ISSUE 19: the third batch shape.  Under ECB no block waits for
    another and all share one schedule, so a run of ``WIDE_MIN_BLOCKS``
    blocks is one pass under a one-column key matrix (the DRBG's counter
    runs); and a batch unsealed under one key — the master key over
    database blobs, the TGS key over TGTs — needs one column too."""

    @pytest.mark.parametrize("blocks", [0, 1, 31, 32, 33, 128])
    def test_ecb_around_the_threshold(self, blocks, monkeypatch):
        from repro.crypto import des_simd
        from repro.crypto.modes import interleaved_blocks

        shapes = _spy_on_key_matrices(monkeypatch)
        rng = random.Random(1900 + blocks)
        key = DesKey(rng.randbytes(8), allow_weak=True)
        data = rng.randbytes(8 * blocks)
        before = interleaved_blocks()
        cipher = ecb_encrypt(key, data)
        assert cipher == ecb_encrypt_ref(key, data)
        assert ecb_decrypt(key, cipher) == data
        assert ecb_decrypt(key, data) == ecb_decrypt_ref(key, data)
        wide = des_simd.available() and blocks >= 32
        assert shapes == ([(blocks, (16, 1))] * 3 if wide else [])
        assert interleaved_blocks() - before == (3 * blocks if wide else 0)

    @pytest.mark.parametrize("blocks", [33, 128])
    def test_ecb_numpy_absent(self, blocks, monkeypatch):
        from repro.crypto import des_simd

        monkeypatch.setattr(des_simd, "_np", None)
        rng = random.Random(blocks)
        key = DesKey(rng.randbytes(8), allow_weak=True)
        data = rng.randbytes(8 * blocks)
        assert ecb_encrypt(key, data) == ecb_encrypt_ref(key, data)
        assert ecb_decrypt(key, data) == ecb_decrypt_ref(key, data)

    def test_ecb_accepts_any_buffer_and_refuses_ragged_ones(self):
        key = DesKey(bytes.fromhex("133457799BBCDFF1"))
        data = bytes(range(256)) + bytes(8)
        expected = ecb_encrypt_ref(key, data)
        assert ecb_encrypt(key, bytearray(data)) == expected
        assert ecb_encrypt(key, memoryview(data)) == expected
        with pytest.raises(ValueError, match="plaintext length 260"):
            ecb_encrypt(key, data[:260])

    @pytest.mark.parametrize("same_key", [True, False])
    def test_one_key_unseals_under_one_column(self, same_key, monkeypatch):
        from repro.crypto import des_simd, pcbc_decrypt_many

        if not des_simd.available():
            pytest.skip("numpy not available; wide path disabled")
        shapes = _spy_on_key_matrices(monkeypatch)
        rng = random.Random(19)
        one = DesKey(rng.randbytes(8), allow_weak=True)
        items = [
            (
                one if same_key else DesKey(rng.randbytes(8), allow_weak=True),
                rng.randbytes(8 * rng.randrange(0, 6)),
            )
            for _ in range(40)
        ]
        # An equal key that is another object does not count as the same.
        if not same_key:
            items[7] = (DesKey(items[0][0].key_bytes, allow_weak=True), items[7][1])
        blocks = sum(len(data) // 8 for _k, data in items)
        iv = rng.randbytes(8)
        assert pcbc_decrypt_many(items, iv) == [
            pcbc_decrypt_ref(key, data, iv) for key, data in items
        ]
        assert shapes == [(blocks, (16, 1) if same_key else (16, blocks))]


class TestOnePassUnsealing:
    """``P_i = D(C_i) ^ IV ^ S_0 ^ ... ^ S_{i-1}`` over one flat buffer:
    the running xor must start afresh at every message boundary."""

    def test_the_chain_stops_at_the_message_boundary(self, monkeypatch):
        """Flip any one bit of message *k*: item *k* fails as a whole —
        the paper's propagation "throughout the message" — and every
        batchmate's plaintext is byte-identical: throughout, and no
        further."""
        from repro.crypto import IntegrityError, unseal_many

        passes = _spy_on_crypt_wide(monkeypatch)
        rng = random.Random(1988)
        pairs, payloads = _sealed_batch(rng, [40, 0, 3, 64, 8, 17, 0, 90])
        assert unseal_many(pairs) == payloads
        for k, (key, blob) in enumerate(pairs):
            # Every bit of the two-block messages; elsewhere the first
            # bit, the last, and a sample between.
            bits = range(8 * len(blob)) if len(blob) == 16 else (
                [0, 8 * len(blob) - 1]
                + rng.sample(range(8 * len(blob)), 12)
            )
            for bit in bits:
                bent = bytearray(blob)
                bent[bit // 8] ^= 0x80 >> (bit % 8)
                batch = list(pairs)
                batch[k] = (key, bytes(bent))
                opened = unseal_many(batch)
                assert isinstance(opened[k], IntegrityError), (k, bit)
                opened[k] = payloads[k]
                assert opened == payloads, (k, bit)
        assert len(set(passes)) == 1 and passes[0] >= 32  # one pass each

    def test_a_flipped_bit_garbles_its_message_from_that_block_on(self):
        """Below the seal frame: the blocks before the flip survive, the
        flipped block and every later one of *that message* change, and
        no other message does."""
        from repro.crypto import pcbc_decrypt_many

        rng = random.Random(22)
        items = [
            (DesKey(rng.randbytes(8), allow_weak=True), rng.randbytes(8 * n))
            for n in (9, 12, 1, 14)
        ]
        iv = rng.randbytes(8)
        clean = pcbc_decrypt_many(items, iv)
        for k, block in ((0, 0), (1, 5), (1, 11), (2, 0), (3, 13)):
            key, cipher = items[k]
            bent = bytearray(cipher)
            bent[8 * block + rng.randrange(8)] ^= 1 << rng.randrange(8)
            batch = list(items)
            batch[k] = (key, bytes(bent))
            out = pcbc_decrypt_many(batch, iv)
            assert out == [
                pcbc_decrypt_ref(key, data, iv) for key, data in batch
            ]
            assert out[:k] + out[k + 1:] == clean[:k] + clean[k + 1:]
            assert out[k][: 8 * block] == clean[k][: 8 * block]
            for later in range(block, len(cipher) // 8):
                span = slice(8 * later, 8 * later + 8)
                assert out[k][span] != clean[k][span], (k, block, later)

    def test_first_last_and_squeezed_messages(self):
        """``unseal_many`` is ``[unseal ...]`` at the edges of the flat
        buffer: its first message, its last, and a two-block message
        between two 30-block ones."""
        from repro.crypto import IntegrityError, unseal_many

        rng = random.Random(30)
        pairs, payloads = _sealed_batch(rng, [220, 0, 217])
        assert [len(blob) // 8 for _key, blob in pairs] == [30, 2, 30]
        assert unseal_many(pairs) == payloads
        assert payloads == [unseal_ref(key, blob) for key, blob in pairs]
        assert payloads == [unseal(key, blob) for key, blob in pairs]
        # Each position in turn under the wrong key: only it fails.
        wrong = DesKey(rng.randbytes(8), allow_weak=True)
        for k in range(3):
            batch = list(pairs)
            batch[k] = (wrong, pairs[k][1])
            opened = unseal_many(batch)
            assert isinstance(opened[k], IntegrityError)
            assert [o for i, o in enumerate(opened) if i != k] == [
                p for i, p in enumerate(payloads) if i != k
            ]

    def test_bad_items_do_not_poison_a_one_pass_batch(self, monkeypatch):
        from repro.crypto import IntegrityError, unseal_many

        passes = _spy_on_crypt_wide(monkeypatch)
        rng = random.Random(8)
        pairs, payloads = _sealed_batch(rng, [40] * 8)
        wrong_key = DesKey(rng.randbytes(8), allow_weak=True)
        batch = list(pairs)
        batch[1] = (wrong_key, pairs[1][1])        # wrong key: bad magic
        batch[2] = (pairs[2][0], pairs[2][1][:-8])  # a block short: trailer
        batch[3] = (pairs[3][0], pairs[3][1][:-3])  # misaligned: never run
        batch[5] = (pairs[5][0], pairs[5][1][:8])   # one block: never run
        opened = unseal_many(batch)
        for i, (got, want) in enumerate(zip(opened, payloads)):
            if i in (1, 2, 3, 5):
                assert isinstance(got, IntegrityError), i
                assert got.__traceback__ is None
            else:
                assert got == want
        assert passes == [5 * 7 + 6]


class TestSkeletonReadOff:
    """A skeleton-cache miss seals the whole frame once, in the batch
    run, and reads the resumable state off the result."""

    @pytest.mark.parametrize("count", [1, 5, 40])
    @pytest.mark.parametrize("cached", [True, False])
    def test_state_of_finished_job_equals_prefix_state(self, count, cached):
        from contextlib import nullcontext
        from repro.crypto import (
            SEAL_START,
            seal_resume_many,
            sealed_prefix_state,
        )

        rng = random.Random(1300 + count)
        cases = []
        for _ in range(count):
            key = DesKey(rng.randbytes(8), allow_weak=True)
            payload = rng.randbytes(rng.randrange(0, 160))
            cut = rng.randrange(0, len(payload) // 8 + 1) * 8
            cases.append((key, payload, cut))
        with nullcontext() if cached else keycache.caches_disabled():
            sealed = seal_resume_many(
                [(key, SEAL_START, payload) for key, payload, _c in cases]
            )
            for (key, payload, cut), blob in zip(cases, sealed):
                assert blob == seal(key, payload)
                state = sealed_prefix_state(payload, blob, cut)
                assert state == seal_prefix_state(
                    key, len(payload), payload[:cut]
                )
                # ... and resuming from it finishes the same message.
                assert seal_resume_many(
                    [(key, state, payload[cut:])]
                ) == [blob]


# --------------------------------------------------------------------------
# ISSUE 20: the sealing run keeps its chain inside the cipher, and a
# reply is sealed around its ticket in two runs.
#
# ``des_simd.pcbc_encrypt_wide`` makes one bulk IP over every
# ``P_i ^ P_{i-1}`` of the run, sixteen rounds a step with the previous
# step's pre-output as the chain, and one bulk FP; lanes leave the run
# as they end, so the rows of a finished lane reach the bulk FP holding
# whatever the bulk IP put there.  ``seal_nested_many`` seals
# ``head + seal(inner)`` for many (inner, head) pairs: the inner
# messages and the whole blocks ahead of them ride run 1, the rest of
# every outer message run 2.
# --------------------------------------------------------------------------


def _run_kernel_case(rng, lens, broadcast):
    """Drive the run kernel directly on lanes of ``lens`` blocks
    (sorted longest first here, as ``modes`` hands them over): a random
    chain per lane, per-lane keys or one ``(16, 1)`` column, and noise
    in the matrix below every finished lane."""
    from repro.crypto import des_simd

    np = des_simd._np
    lens = sorted(lens, reverse=True)
    depth, lanes = lens[0], len(lens)
    lane_keys = [DesKey(rng.randbytes(8), allow_weak=True) for _ in lens]
    if broadcast:
        lane_keys = lane_keys[:1] * lanes
    km = des_simd.keymat(
        [key._enc_subkeys for key in (lane_keys[:1] if broadcast else lane_keys)]
    )
    assert km.shape == (16, 1 if broadcast else lanes)
    plain = np.array(
        [[rng.getrandbits(64) for _ in lens] for _ in range(depth)],
        dtype="<u8",
    ).reshape(depth, lanes)
    chains = np.array([rng.getrandbits(64) for _ in lens], dtype="<u8")
    running = [sum(n > step for n in lens) for step in range(depth)]
    kept = plain.copy()
    out = des_simd.pcbc_encrypt_wide(plain, chains, km, running)
    assert out.shape == (depth, lanes)
    assert (plain == kept).all()  # the caller's matrix is read, not written
    for lane, (key, n) in enumerate(zip(lane_keys, lens)):
        data = plain[:n, lane].astype(">u8").tobytes()
        iv = int(chains[lane]).to_bytes(8, "big")
        got = out[:n, lane].astype(">u8").tobytes()
        assert got == pcbc_encrypt_ref(key, data, iv), (lane, n)


class TestRunKernel:
    def setup_method(self):
        from repro.crypto import des_simd

        if not des_simd.available():
            pytest.skip("numpy not available; wide path disabled")

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_ragged_lanes_against_the_oracle(self, data):
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        lens = data.draw(st.lists(st.integers(1, 12), min_size=1, max_size=20))
        _run_kernel_case(rng, lens, data.draw(st.booleans()))

    @pytest.mark.parametrize("lens", [
        [1], [7], [1] * 6, [3, 1, 1, 1, 1, 1], [9, 9, 2, 2, 2, 1],
        [12] * 16, list(range(1, 14)),
    ], ids=lambda lens: "-".join(map(str, lens))[:24])
    @pytest.mark.parametrize("broadcast", [False, True], ids=["keys", "column"])
    def test_shapes_a_queued_kdc_makes(self, lens, broadcast):
        """One lane, depth 1, lanes leaving at every step, a batch of
        8's sixteen lanes — per-lane keys and one broadcast column."""
        _run_kernel_case(random.Random(sum(lens)), lens, broadcast)

    # 5/6/7: astride the sealing threshold; the short lanes make the
    # run ragged from its second step, the long ones leave tails.
    @pytest.mark.parametrize("count", [5, 6, 7, 8, 16])
    def test_runs_astride_the_threshold_resume_and_finish(
        self, count, monkeypatch
    ):
        from repro.crypto import seal_resume_many
        from repro.crypto.modes import WIDE_MIN_MESSAGES, interleaved_blocks

        runs = _spy_on_sealing_runs(monkeypatch)
        rng = random.Random(2000 + count)
        before = interleaved_blocks()
        _assert_resumed_jobs_match_whole_seals(rng, count, 200)
        (run,) = runs or [[]]
        assert bool(run) == (count >= WIDE_MIN_MESSAGES)
        # Every step of a run keeps the threshold's worth of lanes.
        assert all(WIDE_MIN_MESSAGES <= alive <= count for alive in run)
        assert interleaved_blocks() - before == sum(run)
        # The empty suffix: a seal resumed at its very end.
        key = DesKey(rng.randbytes(8), allow_weak=True)
        payload = rng.randbytes(24)
        jobs = [
            (key, seal_prefix_state(key, 24, payload[:cut]), payload[cut:])
            for cut in (0, 8, 16, 24)
        ] * 2
        assert seal_resume_many(jobs) == [seal_ref(key, payload)] * 8

    @pytest.mark.parametrize("blocks", [
        [0] * 8, [0, 0, 0, 5, 0, 0, 0, 2], [1] * 6, [4, 0, 1, 1, 1, 1, 1, 0],
    ], ids=["depth0-empty", "depth0-tails", "depth1", "depth1-ragged"])
    def test_depth_zero_and_one(self, blocks, monkeypatch):
        """Six messages or more, yet no step — or one — with six
        lanes: the run is skipped, or is a single step, and what is
        longer finishes single-lane from its own chain."""
        from repro.crypto import pcbc_encrypt_many

        runs = _spy_on_sealing_runs(monkeypatch)
        rng = random.Random(sum(blocks))
        items = [
            (DesKey(rng.randbytes(8), allow_weak=True), rng.randbytes(8 * n))
            for n in blocks
        ]
        iv = rng.randbytes(8)
        assert pcbc_encrypt_many(items, iv) == [
            pcbc_encrypt_ref(key, data, iv) for key, data in items
        ]
        depth = sorted(blocks)[-6]
        assert [len(run) for run in runs] == ([depth] if depth else [])


def _nest_case(rng, head_len, inner_len, resumed):
    """One nest item and the oracle's ``(inner sealed, outer sealed)``:
    the inner message whole, or resumed from the oracle's state at a
    random cut."""
    from repro.crypto import SEAL_START

    inner_key = DesKey(rng.randbytes(8), allow_weak=True)
    outer_key = DesKey(rng.randbytes(8), allow_weak=True)
    inner, head = rng.randbytes(inner_len), rng.randbytes(head_len)
    state, suffix = SEAL_START, inner
    if resumed:
        cut = 8 * rng.randrange(0, inner_len // 8 + 1)
        state = seal_prefix_state(inner_key, inner_len, inner[:cut])
        suffix = inner[cut:]
    blob = seal_ref(inner_key, inner)
    return (
        (inner_key, state, suffix, outer_key, head),
        (blob, seal_ref(outer_key, head + blob)),
    )


def _assert_nests_match(cases):
    from repro.crypto import seal_nested_many

    items = [item for item, _want in cases]
    inner, outer = seal_nested_many(items)
    assert inner == [want[0] for _item, want in cases]
    assert outer == [want[1] for _item, want in cases]


class TestNestedSeal:
    """``seal_nested_many`` is ``seal(outer, head + seal(inner, …))``
    byte for byte, whatever rides which run."""

    # 1: two lanes, then one — the single-lane loops; 5/6/7: the second
    # run astride the threshold, the first (twice the lanes) above it
    # from 3 up; 8: a queued KDC's batch; 40: a buffer.
    @pytest.mark.parametrize("count", [0, 1, 2, 3, 5, 6, 7, 8, 40])
    @pytest.mark.parametrize("numpy", [True, False], ids=["numpy", "no-numpy"])
    def test_every_head_length_mod_8(self, count, numpy, monkeypatch):
        from repro.crypto import des_simd
        from repro.crypto.modes import interleaved_blocks

        if not numpy:
            monkeypatch.setattr(des_simd, "_np", None)
        for head_len in list(range(0, 18)) + [79, 80, 81]:
            rng = random.Random(100 * count + head_len)
            _assert_nests_match([
                _nest_case(
                    rng, head_len, rng.randrange(0, 120), rng.random() < 0.5
                )
                for _ in range(count)
            ])
        if not numpy:
            before = interleaved_blocks()
            _assert_nests_match(
                [_nest_case(random.Random(1), 80, 100, False)] * 16
            )
            assert interleaved_blocks() == before

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_any_nest(self, data):
        """Inner messages of 0 to 40 blocks, heads with no whole block
        ahead of the ticket up to several, whole and resumed mixed."""
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        count = data.draw(st.integers(1, 20))
        max_inner = data.draw(st.sampled_from([0, 8, 64, 8 * 38]))
        _assert_nests_match([
            _nest_case(
                rng,
                data.draw(st.integers(0, 40)),
                rng.randrange(0, max_inner + 1),
                data.draw(st.booleans()),
            )
            for _ in range(count)
        ])

    def test_a_batch_of_eight_is_two_runs_of_sixteen_then_eight_lanes(
        self, monkeypatch
    ):
        from repro.crypto.modes import interleaved_blocks

        runs = _spy_on_sealing_runs(monkeypatch)
        passes = _spy_on_crypt_wide(monkeypatch)
        rng = random.Random(8)
        # 10 whole blocks ahead of a 14-block inner message, 1 + 14 + 1
        # blocks from there on.
        cases = [_nest_case(rng, 76, 90, False) for _ in range(8)]
        before = interleaved_blocks()
        _assert_nests_match(cases)
        assert runs == [[16] * 10 + [8] * 4, [8] * 16]
        assert passes == []
        assert interleaved_blocks() - before == 8 * (14 + 26)

    def test_one_nest_is_the_single_lane_loops(self, monkeypatch):
        """Two lanes, then one: below the threshold, so the same
        ``pcbc_encrypt`` loops over the same blocks as two plain seals."""
        from repro.crypto import des, modes

        blocks = []
        real = des.crypt_int
        monkeypatch.setattr(
            modes, "crypt_int", lambda b, sk: blocks.append(b) or real(b, sk)
        )
        case = _nest_case(random.Random(1), 76, 90, False)
        _assert_nests_match([case])
        assert len(blocks) == (len(case[1][0]) + len(case[1][1])) // 8
