"""The oracle is anchored to the standard, not to the kernels it judges:
``reference_des.py`` against the published vectors ``test_des.py`` uses,
two-block CBC/PCBC chains worked out by hand from them, the key schedule
against the classic worked example, and the seal frame as literal bytes.
Nothing here calls a production kernel; the one production function
judged here is the table-driven key schedule (``TestKeySchedule``).
"""

import ast
import random
from pathlib import Path

import pytest

from repro.crypto.des import DesKey, _key_schedule
from tests.crypto import reference_des as ref
from tests.crypto.test_des import KNOWN_VECTORS

# NBS variable-plaintext known answers under key 01 01 01 01 01 01 01 01:
# E(A1) = B1 and E(A2) = B2.
NBS_KEY = "0101010101010101"
A1, B1 = 0x8000000000000000, 0x95F8A5E5DD31D900
A2, B2 = 0x4000000000000000, 0xDD7F121CA5015619


def _block(value: int) -> bytes:
    return value.to_bytes(8, "big")


class TestBlockFunction:
    @pytest.mark.parametrize("key,plain,cipher", KNOWN_VECTORS)
    def test_published_vectors_both_directions(self, key, plain, cipher):
        subkeys = ref.key_schedule_ref(bytes.fromhex(key))
        p, c = int(plain, 16), int(cipher, 16)
        assert ref.crypt_int_ref(p, subkeys) == c
        assert ref.crypt_int_ref(c, subkeys[::-1]) == p

    def test_all_zero_and_nbs_variable_plaintext_vectors(self):
        subkeys = ref.key_schedule_ref(bytes(8))
        assert ref.crypt_int_ref(0, subkeys) == 0x8CA64DE9C1B123A7
        subkeys = ref.key_schedule_ref(bytes.fromhex(NBS_KEY))
        for plain, cipher in ((A1, B1), (A2, B2)):
            assert ref.crypt_int_ref(plain, subkeys) == cipher
            assert ref.crypt_int_ref(cipher, subkeys[::-1]) == plain

    def test_tables_are_built_here_from_the_published_tuples(self):
        from repro.crypto import des

        for name in ("_IP_C", "_FP_C", "_E_C", "_P_C", "_SP"):
            assert getattr(ref, name) is not getattr(des, name)
        # S1 row 0 column 0 is 14 = 0b1110 (FIPS 46), and P sends the
        # round output's bits 1, 2, 3, 4 to positions 9, 17, 23, 31.
        assert ref._SP[0][0] == (
            1 << (32 - 9) | 1 << (32 - 17) | 1 << (32 - 23)
        )
        # S8 row 3 column 15 is 11 = 0b1011; bits 29, 31, 32 go to
        # positions 5, 15, 21.
        assert ref._SP[7][0b111111] == (
            1 << (32 - 5) | 1 << (32 - 15) | 1 << (32 - 21)
        )


class TestKeySchedule:
    """The oracle's schedule is pinned to the standard, and production's
    eight-lookup schedule to the oracle's."""

    def test_classic_worked_example(self):
        # The key of the ``DesKey`` docstring: K1 and K16 as published
        # with every textbook walk through the schedule.
        subkeys = ref.key_schedule_ref(bytes.fromhex("133457799BBCDFF1"))
        assert len(subkeys) == 16
        assert f"{subkeys[0]:012X}" == "1B02EFFC7072"
        assert f"{subkeys[15]:012X}" == "CB3D8B0E17F5"

    def test_production_schedule_on_random_keys(self):
        rng = random.Random(1988)
        for _ in range(300):
            key = rng.randbytes(8)
            assert _key_schedule(key) == ref.key_schedule_ref(key)

    def test_production_schedule_on_every_single_bit_key(self):
        """Each of the 64 key bits alone (the schedule is linear over OR,
        so these are its whole basis), plus none and all."""
        for bit in range(64):
            key = (1 << bit).to_bytes(8, "big")
            assert _key_schedule(key) == ref.key_schedule_ref(key), bit
        for key in (bytes(8), b"\xff" * 8):
            assert _key_schedule(key) == ref.key_schedule_ref(key)

    def test_parity_bits_never_reach_a_subkey(self):
        rng = random.Random(46)
        for _ in range(20):
            key = rng.randbytes(8)
            cleared = bytes(b & 0xFE for b in key)
            flipped = bytes(b ^ 1 for b in key)
            want = ref.key_schedule_ref(key)
            for variant in (cleared, flipped):
                assert ref.key_schedule_ref(variant) == want
                assert _key_schedule(variant) == want
        # ... and each of the 56 other bits reaches at least one.
        for bit in range(64):
            subkeys = ref.key_schedule_ref((1 << bit).to_bytes(8, "big"))
            assert any(subkeys) == (bit % 8 != 0)


class TestTwoBlockChains:
    """C1 and C2 follow from the NBS vectors by the modes' definitions."""

    key = DesKey(bytes.fromhex(NBS_KEY), allow_weak=True)

    def test_ecb(self):
        plain = _block(A1) + _block(A2)
        cipher = _block(B1) + _block(B2)
        assert ref.ecb_encrypt_ref(self.key, plain) == cipher
        assert ref.ecb_decrypt_ref(self.key, cipher) == plain

    def test_cbc(self):
        # C1 = E(P1 ^ IV), C2 = E(P2 ^ C1): pick P1 = A1 ^ IV and
        # P2 = A2 ^ B1 so that C1 = B1, C2 = B2.
        iv = 0x0123456789ABCDEF
        plain = _block(0x8123456789ABCDEF) + _block(0xD5F8A5E5DD31D900)
        cipher = _block(B1) + _block(B2)
        assert ref.cbc_encrypt_ref(self.key, plain, _block(iv)) == cipher
        assert ref.cbc_decrypt_ref(self.key, cipher, _block(iv)) == plain

    def test_pcbc(self):
        # C2 = E(P2 ^ P1 ^ C1): with IV = 0 and P1 = A1, C1 = B1 and
        # P2 = A2 ^ A1 ^ B1 gives C2 = B2.
        plain = _block(A1) + _block(0x55F8A5E5DD31D900)
        cipher = _block(B1) + _block(B2)
        assert ref.pcbc_encrypt_ref(self.key, plain) == cipher
        assert ref.pcbc_decrypt_ref(self.key, cipher) == plain

        # The same two blocks under CBC end differently: the previous
        # *plaintext* is in PCBC's chain.
        assert ref.cbc_encrypt_ref(self.key, plain)[8:] != _block(B2)

    def test_misaligned_and_bad_iv_rejected(self):
        with pytest.raises(ValueError):
            ref.pcbc_encrypt_ref(self.key, b"seven b")
        with pytest.raises(ValueError):
            ref.cbc_decrypt_ref(self.key, bytes(8), b"short")


class TestSealFrame:
    key = DesKey(bytes.fromhex("133457799BBCDFF1"))

    def test_frame_is_the_documented_bytes(self):
        assert ref.frame_ref(b"hello") == (
            b"KRB4\x00\x00\x00\x05hello\x00\x00\x00ATHENA88"
        )
        # Data that ends on a block boundary takes no pad.
        assert ref.frame_ref(b"") == b"KRB4\x00\x00\x00\x00ATHENA88"
        assert ref.frame_ref(b"12345678") == (
            b"KRB4\x00\x00\x00\x0812345678ATHENA88"
        )

    def test_seal_is_pcbc_of_the_frame_and_opens_again(self):
        sealed = ref.seal_ref(self.key, b"hello")
        assert sealed == ref.pcbc_encrypt_ref(self.key, ref.frame_ref(b"hello"))
        assert ref.unseal_ref(self.key, sealed) == b"hello"
        with pytest.raises(ValueError):  # wrong key
            ref.unseal_ref(DesKey(bytes.fromhex("0E329232EA6D0D73")), sealed)

    @pytest.mark.parametrize("plain", [
        b"KRB5\x00\x00\x00\x05hello\x00\x00\x00ATHENA88",   # magic
        b"KRB4\x00\x00\x00\x15hello\x00\x00\x00ATHENA88",   # length
        b"KRB4\x00\x00\x00\x05hello\x00\x01\x00ATHENA88",   # pad
        b"KRB4\x00\x00\x00\x05hello\x00\x00\x00ATHENA89",   # trailer
        b"KRB4\x00\x00\x00\x00",                            # no trailer
    ])
    def test_anything_but_a_frame_is_refused(self, plain):
        with pytest.raises(ValueError):
            ref.open_frame_ref(plain)

    def test_prefix_state_is_a_cut_of_the_whole_seal(self):
        payload = bytes(range(40))
        sealed = ref.seal_ref(self.key, payload)
        for cut in (0, 8, 32, 40):
            cipher, chain = ref.seal_prefix_state(
                self.key, len(payload), payload[:cut]
            )
            assert cipher == sealed[: 8 + cut]
            # Resuming by hand: the next block is E(P ^ chain).
            rest = ref.frame_ref(payload)[8 + cut :]
            assert ref.pcbc_encrypt_ref(
                self.key, rest, chain.to_bytes(8, "big")
            ) == sealed[8 + cut :]
        with pytest.raises(ValueError):
            ref.seal_prefix_state(self.key, 40, payload[:7])
        with pytest.raises(ValueError):
            ref.seal_prefix_state(self.key, 8, payload[:16])


def test_the_oracle_imports_only_the_published_tables_and_the_key():
    """From ``des``: the FIPS tuples, ``BLOCK_SIZE`` and ``DesKey`` (the
    carrier of the key bytes — never of subkeys); the permutation
    compiler from ``bits``; nothing from ``modes`` or ``keycache``, no
    production kernel and no production key schedule."""
    tree = ast.parse(Path(ref.__file__).read_text(encoding="utf-8"))
    imports = {}
    for node in ast.walk(tree):
        assert not isinstance(node, ast.Import), ast.unparse(node)
        if isinstance(node, ast.ImportFrom):
            imports.setdefault(node.module, set()).update(
                alias.name for alias in node.names
            )
    assert set(imports) == {"repro.crypto.bits", "repro.crypto.des"}
    assert imports["repro.crypto.des"] == {
        "_IP", "_FP", "_E", "_P", "_PC1", "_PC2", "_SHIFTS", "_SBOXES",
        "BLOCK_SIZE", "DesKey",
    }
    # No subkey is read off a production key object.
    assert not [
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr.endswith("_subkeys")
    ]
    assert imports["repro.crypto.bits"] == {
        "apply_permutation", "bytes_to_int", "compile_permutation",
        "int_to_bytes",
    }
