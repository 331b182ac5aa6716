"""DES correctness: published vectors, parity, weak keys, properties,
and what a scheduled key keeps."""

import gc
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.des import (
    BLOCK_SIZE,
    DesKey,
    KeyError_,
    WEAK_KEYS,
    check_parity,
    fix_parity,
    is_weak_key,
)


# Published DES test vectors: (key, plaintext, ciphertext) in hex.
KNOWN_VECTORS = [
    # The classic FIPS walk-through vector (Stallings / FIPS 46 example).
    ("133457799BBCDFF1", "0123456789ABCDEF", "85E813540F0AB405"),
    # Well-known all-zero-ciphertext vector.
    ("0E329232EA6D0D73", "8787878787878787", "0000000000000000"),
]


class TestKnownVectors:
    @pytest.mark.parametrize("key,plain,cipher", KNOWN_VECTORS)
    def test_encrypt(self, key, plain, cipher):
        k = DesKey(bytes.fromhex(key))
        assert k.encrypt_block(bytes.fromhex(plain)).hex() == cipher.lower()

    @pytest.mark.parametrize("key,plain,cipher", KNOWN_VECTORS)
    def test_decrypt(self, key, plain, cipher):
        k = DesKey(bytes.fromhex(key))
        assert k.decrypt_block(bytes.fromhex(cipher)).hex() == plain.lower()

    def test_all_zero_key_and_block(self):
        # The historical all-zeros vector (weak key, allowed explicitly).
        k = DesKey(bytes(8), allow_weak=True)
        c = k.encrypt_block(bytes(8))
        assert c.hex() == "8ca64de9c1b123a7"

    @pytest.mark.parametrize(
        "plain,cipher",
        [
            # NBS variable-plaintext known-answer test (first five rows),
            # key 01 01 01 01 01 01 01 01.
            ("8000000000000000", "95F8A5E5DD31D900"),
            ("4000000000000000", "DD7F121CA5015619"),
            ("2000000000000000", "2E8653104F3834EA"),
            ("1000000000000000", "4BD388FF6CD81D4F"),
            ("0800000000000000", "20B9E767B2FB1456"),
        ],
    )
    def test_nbs_variable_plaintext_vectors(self, plain, cipher):
        k = DesKey(bytes.fromhex("0101010101010101"), allow_weak=True)
        assert k.encrypt_block(bytes.fromhex(plain)).hex().upper() == cipher
        assert k.decrypt_block(bytes.fromhex(cipher)).hex().upper() == plain.upper()


class TestProperties:
    @given(st.binary(min_size=8, max_size=8), st.binary(min_size=8, max_size=8))
    @settings(max_examples=50)
    def test_round_trip(self, key, block):
        k = DesKey(key, allow_weak=True)
        assert k.decrypt_block(k.encrypt_block(block)) == block

    @given(st.binary(min_size=8, max_size=8), st.binary(min_size=8, max_size=8))
    @settings(max_examples=25)
    def test_complementation_property(self, key, block):
        """DES(~K, ~P) == ~DES(K, P) — a structural property of DES."""
        k = DesKey(key, allow_weak=True)
        kc = DesKey(bytes(b ^ 0xFF for b in fix_parity(key)), allow_weak=True)
        c = k.encrypt_block(block)
        cc = kc.encrypt_block(bytes(b ^ 0xFF for b in block))
        assert cc == bytes(b ^ 0xFF for b in c)

    @given(st.binary(min_size=8, max_size=8))
    @settings(max_examples=25)
    def test_encryption_is_permutation(self, key):
        """Distinct plaintexts map to distinct ciphertexts."""
        k = DesKey(key, allow_weak=True)
        blocks = [i.to_bytes(8, "big") for i in range(16)]
        cipher = {k.encrypt_block(b) for b in blocks}
        assert len(cipher) == len(blocks)

    def test_avalanche(self):
        """Flipping one plaintext bit changes roughly half the output bits."""
        k = DesKey(bytes.fromhex("133457799BBCDFF1"))
        a = k.encrypt_block(bytes(8))
        b = k.encrypt_block(b"\x80" + bytes(7))
        diff = sum(bin(x ^ y).count("1") for x, y in zip(a, b))
        assert 16 <= diff <= 48  # ~32 expected out of 64


class TestKeyHandling:
    def test_wrong_length_rejected(self):
        with pytest.raises(KeyError_):
            DesKey(b"short")

    def test_non_bytes_rejected(self):
        with pytest.raises(KeyError_):
            DesKey("16-char-pass-str")

    def test_parity_normalized_on_entry(self):
        # Parity bits are ignored: keys differing only in parity bits are equal.
        k1 = DesKey(bytes.fromhex("133457799BBCDFF1"))
        k2 = DesKey(bytes.fromhex("123456789ABCDEF0"))
        assert k1 == k2  # low bits differ, 56 effective bits identical

    def test_weak_key_rejected_by_default(self):
        with pytest.raises(KeyError_):
            DesKey(bytes.fromhex("0101010101010101"))

    def test_weak_key_allowed_explicitly(self):
        k = DesKey(bytes.fromhex("0101010101010101"), allow_weak=True)
        # Defining property of a weak key: encryption == decryption.
        block = b"12345678"
        assert k.decrypt_block(block) == k.encrypt_block(block)

    def test_semi_weak_rejected(self):
        with pytest.raises(KeyError_):
            DesKey(bytes.fromhex("01FE01FE01FE01FE"))

    def test_block_length_enforced(self):
        k = DesKey(bytes.fromhex("133457799BBCDFF1"))
        with pytest.raises(ValueError):
            k.encrypt_block(b"short")
        with pytest.raises(ValueError):
            k.decrypt_block(b"nine bytes!"[:9])

    def test_repr_hides_key_material(self):
        k = DesKey(bytes.fromhex("133457799BBCDFF1"))
        assert "133457" not in repr(k).lower()
        assert "13 34" not in repr(k)

    def test_equality_and_hash(self):
        k1 = DesKey(bytes.fromhex("133457799BBCDFF1"))
        k2 = DesKey(bytes.fromhex("133457799BBCDFF1"))
        assert k1 == k2 and hash(k1) == hash(k2)
        assert k1 != DesKey(bytes.fromhex("0E329232EA6D0D73"))
        assert k1 != "not a key"

    def test_bytes_kept_per_key(self):
        """A scheduled key keeps its schedule as one packed string: its
        bytes, the 128-byte schedule and the object, before any lane
        rows.  tracemalloc counts requested sizes, so the figure repeats
        exactly (Python 3.11 reads 267 B a key here, the list's slot
        included; sixteen subkey ints and their tuple read 786 B)."""
        rng = random.Random(56)
        raws = [rng.randbytes(8) for _ in range(1000)]
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            keys = [DesKey(raw, allow_weak=True) for raw in raws]
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert all(key._rows is None for key in keys)
        assert kept / len(keys) <= 294  # 267 B plus 10 %


class TestParityHelpers:
    @given(st.binary(min_size=8, max_size=8))
    def test_fix_parity_produces_odd_parity(self, raw):
        assert check_parity(fix_parity(raw))

    @given(st.binary(min_size=8, max_size=8))
    def test_fix_parity_idempotent(self, raw):
        once = fix_parity(raw)
        assert fix_parity(once) == once

    @given(st.binary(min_size=8, max_size=8))
    def test_fix_parity_preserves_high_bits(self, raw):
        fixed = fix_parity(raw)
        assert all((a & 0xFE) == (b & 0xFE) for a, b in zip(raw, fixed))

    def test_check_parity_wrong_length(self):
        with pytest.raises(KeyError_):
            check_parity(b"abc")

    def test_weak_key_table_has_16_entries(self):
        assert len(WEAK_KEYS) == 16

    def test_all_weak_keys_have_odd_parity(self):
        assert all(check_parity(k) for k in WEAK_KEYS)

    def test_is_weak_key(self):
        assert is_weak_key(bytes.fromhex("FEFEFEFEFEFEFEFE"))
        assert not is_weak_key(bytes.fromhex("133457799BBCDFF1"))
        with pytest.raises(KeyError_):
            is_weak_key(b"no")

    def test_is_weak_key_ignores_parity_bits(self):
        # 0x00.. has even parity; its parity-fixed form is the weak 0x01..
        assert is_weak_key(bytes(8))
