"""Bit-permutation machinery for the DES implementation.

DES is defined (FIPS 46) in terms of tables that scatter individual bits
of a value into new positions.  Applying such a table bit-by-bit costs one
loop iteration per output bit; instead we *compile* each table into
per-input-byte lookup tables once at import time, so applying a
permutation costs one table lookup and one OR per input byte.

Conventions (matching the FIPS tables):

* values are Python ints holding ``width`` bits, most significant first;
* permutation tables are 1-indexed from the most significant bit of the
  input, exactly as printed in the standard.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

CompiledPermutation = Tuple[Tuple[Tuple[int, ...], ...], int, int]


def compile_permutation(
    table: Sequence[int], in_width: int
) -> CompiledPermutation:
    """Compile a FIPS-style permutation table for fast application.

    ``table[j]`` says which input bit (1-indexed from the MSB of an
    ``in_width``-bit value) supplies output bit ``j`` (0-indexed from the
    MSB of the result).  ``in_width`` must be a multiple of 8.
    """
    if in_width % 8 != 0:
        raise ValueError(f"in_width {in_width} is not a multiple of 8")
    out_width = len(table)
    nbytes = in_width // 8
    lookup: List[List[int]] = [[0] * 256 for _ in range(nbytes)]
    for out_pos, in_pos in enumerate(table):
        if not 1 <= in_pos <= in_width:
            raise ValueError(f"table entry {in_pos} outside input width")
        src = in_pos - 1  # 0-indexed from MSB
        byte_idx = src // 8
        bit_in_byte = 7 - (src % 8)  # position within the byte, LSB = 0
        out_shift = out_width - 1 - out_pos
        for value in range(256):
            if (value >> bit_in_byte) & 1:
                lookup[byte_idx][value] |= 1 << out_shift
    frozen = tuple(tuple(row) for row in lookup)
    return (frozen, nbytes, in_width)


def apply_permutation(compiled: CompiledPermutation, value: int) -> int:
    """Apply a compiled permutation to ``value``."""
    lookup, nbytes, in_width = compiled
    out = 0
    for i in range(nbytes):
        shift = in_width - 8 * (i + 1)
        out |= lookup[i][(value >> shift) & 0xFF]
    return out


def rotate_left_28(value: int, count: int) -> int:
    """Rotate a 28-bit value left by ``count`` bits (DES key schedule)."""
    count %= 28
    return ((value << count) | (value >> (28 - count))) & 0x0FFFFFFF


def bytes_to_int(data: bytes) -> int:
    return int.from_bytes(data, "big")


def int_to_bytes(value: int, length: int) -> bytes:
    return value.to_bytes(length, "big")


#: ``bytes.translate`` table: every byte value with its bits reversed.
_BIT_REVERSED = bytes(int(f"{v:08b}"[::-1], 2) for v in range(256))


def reverse_block_bits(block: bytes) -> bytes:
    """Reverse the bit order of an 8-byte block (last bit becomes first).

    Used by the historical DES string-to-key "fan-fold": alternate 8-byte
    chunks of the password are folded in bit-reversed.
    """
    if len(block) != 8:
        raise ValueError(f"expected an 8-byte block, got {len(block)}")
    return block[::-1].translate(_BIT_REVERSED)
