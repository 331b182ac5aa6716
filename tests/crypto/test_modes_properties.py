"""Additional property tests on the block modes: IV and cross-mode laws."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import (
    DesKey,
    IntegrityError,
    Mode,
    cbc_decrypt,
    cbc_encrypt,
    pcbc_decrypt,
    pcbc_encrypt,
    seal,
    unseal,
)

keys = st.binary(min_size=8, max_size=8).map(
    lambda b: DesKey(b, allow_weak=True)
)
ivs = st.binary(min_size=8, max_size=8)
aligned = st.binary(min_size=8, max_size=128).map(
    lambda b: b + b"\x00" * ((-len(b)) % 8)
)


class TestIvLaws:
    @given(keys, ivs, aligned)
    @settings(max_examples=30)
    def test_cbc_round_trip_any_iv(self, key, iv, data):
        assert cbc_decrypt(key, cbc_encrypt(key, data, iv), iv) == data

    @given(keys, ivs, ivs, aligned)
    @settings(max_examples=30)
    def test_wrong_iv_corrupts_only_first_block_cbc(self, key, iv1, iv2, data):
        """CBC with the wrong IV garbles exactly the first block — a
        classic CBC property (and why IVs alone are not integrity)."""
        if iv1 == iv2:
            return
        cipher = cbc_encrypt(key, data, iv1)
        plain = cbc_decrypt(key, cipher, iv2)
        assert plain[8:] == data[8:]
        assert plain[:8] != data[:8]

    @given(keys, ivs, ivs, aligned)
    @settings(max_examples=30)
    def test_wrong_iv_corrupts_everything_pcbc(self, key, iv1, iv2, data):
        """PCBC propagates the IV error through the whole message."""
        if iv1 == iv2:
            return
        cipher = pcbc_encrypt(key, data, iv1)
        plain = pcbc_decrypt(key, cipher, iv2)
        # Every block is damaged.
        for i in range(0, len(data), 8):
            assert plain[i : i + 8] != data[i : i + 8]


class TestCrossModeLaws:
    @given(keys, st.binary(min_size=17, max_size=64))
    @settings(max_examples=30)
    def test_cross_mode_unseal_fails_for_nondegenerate_data(self, key, data):
        """Sealing in one mode and unsealing in another fails — for data
        whose blocks are not all-zero.  (CBC and PCBC differ per block by
        the previous *plaintext* block; if every data block is zero that
        difference vanishes and the trailer check passes with corrupted
        data — a documented edge of probabilistic integrity, pinned in
        the test below.)"""
        if all(b == 0 for b in data):
            return
        for enc_mode in Mode:
            blob = seal(key, data, mode=enc_mode)
            for dec_mode in Mode:
                if dec_mode == enc_mode:
                    assert unseal(key, blob, mode=dec_mode) == data
                    continue
                try:
                    result = unseal(key, blob, mode=dec_mode)
                except IntegrityError:
                    continue
                # Survivors must at least not be silently corrupted.
                assert result == data

    def test_the_all_zero_degenerate_case(self):
        """Document the known edge: an all-zero single-block payload
        sealed under PCBC *does* unseal under CBC (and vice versa),
        returning corrupted data, because zero plaintext blocks erase
        the modes' difference.  Real protocol messages always carry
        non-zero structure, but the edge is worth pinning so nobody
        mistakes seal/unseal for a MAC."""
        key = DesKey(bytes.fromhex("133457799BBCDFF1"))
        blob = seal(key, bytes(8), mode=Mode.PCBC)
        result = unseal(key, blob, mode=Mode.CBC)
        assert result != bytes(8)  # accepted, but corrupted

    @given(keys, keys, st.binary(max_size=64))
    @settings(max_examples=30)
    def test_distinct_keys_never_cross_unseal(self, k1, k2, data):
        if k1 == k2:
            return
        blob = seal(k1, data)
        with pytest.raises(IntegrityError):
            unseal(k2, blob)
