"""Bit-permutation machinery: compiled tables vs. a naive reference."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.bits import (
    apply_permutation,
    bytes_to_int,
    compile_permutation,
    int_to_bytes,
    reverse_block_bits,
    rotate_left_28,
)


def naive_permutation(table, in_width, value):
    """Bit-at-a-time reference implementation."""
    out = 0
    out_width = len(table)
    for out_pos, in_pos in enumerate(table):
        bit = (value >> (in_width - in_pos)) & 1
        out |= bit << (out_width - 1 - out_pos)
    return out


class TestCompiledPermutations:
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.randoms())
    @settings(max_examples=30)
    def test_matches_naive_random_table(self, value, rng):
        table = [rng.randint(1, 32) for _ in range(48)]
        compiled = compile_permutation(table, 32)
        assert apply_permutation(compiled, value) == naive_permutation(
            table, 32, value
        )

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=30)
    def test_identity_table(self, value):
        table = list(range(1, 65))
        compiled = compile_permutation(table, 64)
        assert apply_permutation(compiled, value) == value

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=30)
    def test_reversal_table(self, value):
        table = list(range(64, 0, -1))
        compiled = compile_permutation(table, 64)
        once = apply_permutation(compiled, value)
        assert apply_permutation(compiled, once) == value  # involution

    def test_width_must_be_byte_aligned(self):
        with pytest.raises(ValueError):
            compile_permutation([1, 2, 3], 12)

    def test_table_entry_out_of_range(self):
        with pytest.raises(ValueError):
            compile_permutation([9], 8)
        with pytest.raises(ValueError):
            compile_permutation([0], 8)

    def test_expansion_table(self):
        """A table can repeat inputs (DES's E expands 32 -> 48)."""
        table = [1, 1, 2, 2, 3, 3, 4, 4]
        compiled = compile_permutation(table, 8)
        # input 1010 0000 -> pairs (1,1,0,0,1,1,0,0)? bits 1..4 = 1,0,1,0
        assert apply_permutation(compiled, 0b10100000) == 0b11001100


class TestRotation:
    @given(st.integers(min_value=0, max_value=2**28 - 1),
           st.integers(min_value=0, max_value=100))
    @settings(max_examples=50)
    def test_full_rotation_is_identity(self, value, count):
        out = value
        # 28 single rotations return to start.
        for _ in range(28):
            out = rotate_left_28(out, 1)
        assert out == value

    @given(st.integers(min_value=0, max_value=2**28 - 1))
    def test_rotate_by_28_is_identity(self, value):
        assert rotate_left_28(value, 28) == value

    def test_known_rotation(self):
        assert rotate_left_28(1 << 27, 1) == 1
        assert rotate_left_28(1, 1) == 2


class TestHelpers:
    @given(st.binary(min_size=8, max_size=8))
    def test_reverse_block_bits_involution(self, block):
        assert reverse_block_bits(reverse_block_bits(block)) == block

    @given(st.binary(min_size=8, max_size=8))
    def test_reverse_block_bits_matches_the_shift_loop(self, block):
        value, out = bytes_to_int(block), 0
        for _ in range(64):
            out = (out << 1) | (value & 1)
            value >>= 1
        assert reverse_block_bits(block) == int_to_bytes(out, 8)

    def test_reverse_block_bits_known(self):
        assert reverse_block_bits(b"\x80" + bytes(7)) == bytes(7) + b"\x01"
        assert reverse_block_bits(bytes(8)) == bytes(8)

    def test_reverse_block_bits_length_check(self):
        with pytest.raises(ValueError):
            reverse_block_bits(b"short")

    @given(st.binary(min_size=8, max_size=8))
    def test_bytes_int_round_trip(self, data):
        assert int_to_bytes(bytes_to_int(data), 8) == data
