"""Password-to-key derivation (the paper's one-way function)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import DesKey, check_parity, is_weak_key, string_to_key
from repro.crypto.des import WEAK_KEYS
from repro.crypto.string2key import _derive_string_to_key
from tests.crypto.reference_des import cbc_encrypt_ref

# Real passwords contain no NULs; the historical algorithm NUL-pads, so
# "pw" and "pw\x00" deliberately collide (pinned in a test below).
passwords = st.text(min_size=1, max_size=40).filter(
    lambda s: s.strip() and "\x00" not in s
)


def _odd_parity(block: bytes) -> bytes:
    return bytes(
        (b & 0xFE) | (bin(b & 0xFE).count("1") % 2 == 0) for b in block
    )


def _unweaken(key: bytes) -> bytes:
    return key[:-1] + bytes([key[-1] ^ 0xF0]) if key in WEAK_KEYS else key


def string_to_key_ref(data: bytes) -> bytes:
    """The derivation in loop form, as the module docstring states it:
    fold a byte at a time, reverse a chunk a bit at a time, CBC-MAC with
    the oracle's loop."""
    padded = data + b"\x00" * (-len(data) % 8)
    folded = bytearray(8)
    for n in range(len(padded) // 8):
        chunk = padded[8 * n : 8 * n + 8]
        if n % 2:
            bits = f"{int.from_bytes(chunk, 'big'):064b}"[::-1]
            chunk = int(bits, 2).to_bytes(8, "big")
        for j in range(8):
            folded[j] ^= chunk[j]
    temp = _unweaken(_odd_parity(bytes(folded)))
    mac = cbc_encrypt_ref(DesKey(temp, allow_weak=True), padded, temp)[-8:]
    return _unweaken(_odd_parity(mac))


class TestStringToKey:
    @given(passwords, st.sampled_from(["", "ATHENA.MIT.EDU"]))
    @settings(max_examples=60)
    def test_matches_the_loop_form_derivation(self, pw, salt):
        derived = _derive_string_to_key(pw, salt).key_bytes
        assert derived == string_to_key_ref((pw + salt).encode("utf-8"))

    def test_deterministic(self):
        assert (
            string_to_key("correct horse").key_bytes
            == string_to_key("correct horse").key_bytes
        )

    def test_returns_des_key(self):
        assert isinstance(string_to_key("zeroone"), DesKey)

    @given(passwords)
    @settings(max_examples=50)
    def test_always_valid_parity(self, pw):
        assert check_parity(string_to_key(pw).key_bytes)

    @given(passwords)
    @settings(max_examples=50)
    def test_never_weak(self, pw):
        assert not is_weak_key(string_to_key(pw).key_bytes)

    def test_different_passwords_different_keys(self):
        keys = {
            string_to_key(pw).key_bytes
            for pw in ("a", "b", "password", "Password", "password ", "pässword")
        }
        assert len(keys) == 6

    def test_long_password_folds(self):
        # Exercises multiple fan-fold iterations (forward and reversed).
        long_pw = "the quick brown fox jumps over the lazy dog" * 3
        k = string_to_key(long_pw)
        assert check_parity(k.key_bytes)

    def test_salt_changes_key(self):
        assert (
            string_to_key("pw", salt="ATHENA.MIT.EDU").key_bytes
            != string_to_key("pw", salt="LCS.MIT.EDU").key_bytes
        )
        assert (
            string_to_key("pw").key_bytes
            != string_to_key("pw", salt="ATHENA.MIT.EDU").key_bytes
        )

    def test_empty_password_rejected(self):
        with pytest.raises(ValueError):
            string_to_key("")

    def test_non_string_rejected(self):
        with pytest.raises(TypeError):
            string_to_key(b"bytes-password")

    def test_usable_for_encryption(self):
        """The derived key must actually drive the cipher (login flow)."""
        from repro.crypto import seal, unseal

        k = string_to_key("users secret")
        assert unseal(k, seal(k, b"TGT reply")) == b"TGT reply"

    def test_wrong_password_fails_decryption(self):
        """Paper 4.2: the wrong password cannot decrypt the AS reply."""
        from repro.crypto import IntegrityError, seal, unseal

        blob = seal(string_to_key("right"), b"TGT reply")
        with pytest.raises(IntegrityError):
            unseal(string_to_key("wrong"), blob)

    def test_known_golden_values(self):
        """Pin the derivation so the database format stays stable: one
        chunk, exactly one, one and a byte, many (forward and reversed
        folds), salted, non-ASCII."""
        long_pw = "the quick brown fox jumps over the lazy dog" * 3
        golden = {
            ("zeroone", ""): "ad4c7cef383b29e9",
            ("12345678", ""): "e679cb68dab5c102",
            ("123456789", ""): "80d98064137ff78a",
            (long_pw, ""): "df017feab0437fdf",
            ("hunter2", "ATHENA.MIT.EDU"): "451a5e52a8152cb9",
            ("pässword", ""): "b5c7c23e04dc5720",
        }
        for (pw, salt), key in golden.items():
            assert string_to_key(pw, salt).key_bytes.hex() == key

    @given(passwords, passwords)
    @settings(max_examples=30)
    def test_prefix_confusion_resisted(self, a, b):
        """pw1 + pw2 as one password differs from pw1 alone."""
        if a == a + b:
            return
        assert string_to_key(a + b).key_bytes != string_to_key(a).key_bytes

    def test_trailing_nul_collision_is_the_known_quirk(self):
        """The historical algorithm NUL-pads the password, so trailing
        NULs are invisible — a faithful quirk, pinned here so nobody
        "fixes" it into a wire-format break."""
        assert (
            string_to_key("pw").key_bytes
            == string_to_key("pw\x00").key_bytes
        )
