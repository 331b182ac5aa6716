"""The Data Encryption Standard (FIPS PUB 46), implemented from scratch.

This is the block cipher underneath every Kerberos operation in the paper:
tickets are "encrypted using the key of the server", KDC replies are
"encrypted in the client's private key", and authenticators are "encrypted
in the session key".

The implementation follows the standard exactly:

* 64-bit blocks, 64-bit keys of which 56 bits are used (one parity bit
  per byte, odd parity);
* initial permutation IP, 16 Feistel rounds, final permutation FP;
* the round function expands 32 bits to 48 (table E), XORs a 48-bit
  subkey, passes 6-bit groups through the eight S-boxes, and permutes
  the 32-bit result (table P);
* the key schedule applies PC-1, splits into two 28-bit halves, rotates
  per the shift schedule, and extracts each subkey with PC-2.  Every
  subkey bit is a copy of one key bit, so that walk runs only at import,
  once per key bit, to fill eight per-byte tables; scheduling a key is
  eight lookups (:func:`_key_schedule`).

For speed in pure Python the permutations are compiled to per-byte lookup
tables (:mod:`repro.crypto.bits`) and the P permutation is folded into
the S-boxes ("SP boxes"), a standard implementation technique that does
not change the function computed.  On top of that, the block function
used on the hot path (:func:`crypt_int`) keeps both Feistel halves in
their E-expanded form from IP to FP (E is linear over xor, so it folds
into the table outputs and never runs per round), pairs adjacent SP
boxes (12 bits per probe) and unrolls the sixteen rounds — under half
the Python-level work of a per-round loop per block.  That loop, one
round at a time from its own copy of the tables, is the oracle in
``tests/crypto/reference_des.py``, which the property tests pin
``crypt_int`` against.  Correctness is pinned by published test vectors
in ``tests/crypto/test_des.py``.
"""

from __future__ import annotations

import struct
from typing import List, Tuple

from repro.crypto.bits import (
    apply_permutation,
    bytes_to_int,
    compile_permutation,
    int_to_bytes,
    rotate_left_28,
)

BLOCK_SIZE = 8
KEY_SIZE = 8


class KeyError_(ValueError):
    """Raised for malformed DES keys (wrong length, rejected weak key)."""


# --------------------------------------------------------------------------
# FIPS 46 tables (1-indexed from the most significant bit, as published).
# --------------------------------------------------------------------------

_IP = (
    58, 50, 42, 34, 26, 18, 10, 2,
    60, 52, 44, 36, 28, 20, 12, 4,
    62, 54, 46, 38, 30, 22, 14, 6,
    64, 56, 48, 40, 32, 24, 16, 8,
    57, 49, 41, 33, 25, 17, 9, 1,
    59, 51, 43, 35, 27, 19, 11, 3,
    61, 53, 45, 37, 29, 21, 13, 5,
    63, 55, 47, 39, 31, 23, 15, 7,
)

_FP = (
    40, 8, 48, 16, 56, 24, 64, 32,
    39, 7, 47, 15, 55, 23, 63, 31,
    38, 6, 46, 14, 54, 22, 62, 30,
    37, 5, 45, 13, 53, 21, 61, 29,
    36, 4, 44, 12, 52, 20, 60, 28,
    35, 3, 43, 11, 51, 19, 59, 27,
    34, 2, 42, 10, 50, 18, 58, 26,
    33, 1, 41, 9, 49, 17, 57, 25,
)

_E = (
    32, 1, 2, 3, 4, 5,
    4, 5, 6, 7, 8, 9,
    8, 9, 10, 11, 12, 13,
    12, 13, 14, 15, 16, 17,
    16, 17, 18, 19, 20, 21,
    20, 21, 22, 23, 24, 25,
    24, 25, 26, 27, 28, 29,
    28, 29, 30, 31, 32, 1,
)

_P = (
    16, 7, 20, 21, 29, 12, 28, 17,
    1, 15, 23, 26, 5, 18, 31, 10,
    2, 8, 24, 14, 32, 27, 3, 9,
    19, 13, 30, 6, 22, 11, 4, 25,
)

_PC1 = (
    57, 49, 41, 33, 25, 17, 9,
    1, 58, 50, 42, 34, 26, 18,
    10, 2, 59, 51, 43, 35, 27,
    19, 11, 3, 60, 52, 44, 36,
    63, 55, 47, 39, 31, 23, 15,
    7, 62, 54, 46, 38, 30, 22,
    14, 6, 61, 53, 45, 37, 29,
    21, 13, 5, 28, 20, 12, 4,
)

_PC2 = (
    14, 17, 11, 24, 1, 5,
    3, 28, 15, 6, 21, 10,
    23, 19, 12, 4, 26, 8,
    16, 7, 27, 20, 13, 2,
    41, 52, 31, 37, 47, 55,
    30, 40, 51, 45, 33, 48,
    44, 49, 39, 56, 34, 53,
    46, 42, 50, 36, 29, 32,
)

_SHIFTS = (1, 1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1)

_SBOXES = (
    (
        14, 4, 13, 1, 2, 15, 11, 8, 3, 10, 6, 12, 5, 9, 0, 7,
        0, 15, 7, 4, 14, 2, 13, 1, 10, 6, 12, 11, 9, 5, 3, 8,
        4, 1, 14, 8, 13, 6, 2, 11, 15, 12, 9, 7, 3, 10, 5, 0,
        15, 12, 8, 2, 4, 9, 1, 7, 5, 11, 3, 14, 10, 0, 6, 13,
    ),
    (
        15, 1, 8, 14, 6, 11, 3, 4, 9, 7, 2, 13, 12, 0, 5, 10,
        3, 13, 4, 7, 15, 2, 8, 14, 12, 0, 1, 10, 6, 9, 11, 5,
        0, 14, 7, 11, 10, 4, 13, 1, 5, 8, 12, 6, 9, 3, 2, 15,
        13, 8, 10, 1, 3, 15, 4, 2, 11, 6, 7, 12, 0, 5, 14, 9,
    ),
    (
        10, 0, 9, 14, 6, 3, 15, 5, 1, 13, 12, 7, 11, 4, 2, 8,
        13, 7, 0, 9, 3, 4, 6, 10, 2, 8, 5, 14, 12, 11, 15, 1,
        13, 6, 4, 9, 8, 15, 3, 0, 11, 1, 2, 12, 5, 10, 14, 7,
        1, 10, 13, 0, 6, 9, 8, 7, 4, 15, 14, 3, 11, 5, 2, 12,
    ),
    (
        7, 13, 14, 3, 0, 6, 9, 10, 1, 2, 8, 5, 11, 12, 4, 15,
        13, 8, 11, 5, 6, 15, 0, 3, 4, 7, 2, 12, 1, 10, 14, 9,
        10, 6, 9, 0, 12, 11, 7, 13, 15, 1, 3, 14, 5, 2, 8, 4,
        3, 15, 0, 6, 10, 1, 13, 8, 9, 4, 5, 11, 12, 7, 2, 14,
    ),
    (
        2, 12, 4, 1, 7, 10, 11, 6, 8, 5, 3, 15, 13, 0, 14, 9,
        14, 11, 2, 12, 4, 7, 13, 1, 5, 0, 15, 10, 3, 9, 8, 6,
        4, 2, 1, 11, 10, 13, 7, 8, 15, 9, 12, 5, 6, 3, 0, 14,
        11, 8, 12, 7, 1, 14, 2, 13, 6, 15, 0, 9, 10, 4, 5, 3,
    ),
    (
        12, 1, 10, 15, 9, 2, 6, 8, 0, 13, 3, 4, 14, 7, 5, 11,
        10, 15, 4, 2, 7, 12, 9, 5, 6, 1, 13, 14, 0, 11, 3, 8,
        9, 14, 15, 5, 2, 8, 12, 3, 7, 0, 4, 10, 1, 13, 11, 6,
        4, 3, 2, 12, 9, 5, 15, 10, 11, 14, 1, 7, 6, 0, 8, 13,
    ),
    (
        4, 11, 2, 14, 15, 0, 8, 13, 3, 12, 9, 7, 5, 10, 6, 1,
        13, 0, 11, 7, 4, 9, 1, 10, 14, 3, 5, 12, 2, 15, 8, 6,
        1, 4, 11, 13, 12, 3, 7, 14, 10, 15, 6, 8, 0, 5, 9, 2,
        6, 11, 13, 8, 1, 4, 10, 7, 9, 5, 0, 15, 14, 2, 3, 12,
    ),
    (
        13, 2, 8, 4, 6, 15, 11, 1, 10, 9, 3, 14, 5, 0, 12, 7,
        1, 15, 13, 8, 10, 3, 7, 4, 12, 5, 6, 11, 0, 14, 9, 2,
        7, 11, 4, 1, 9, 12, 14, 2, 0, 6, 10, 13, 15, 3, 5, 8,
        2, 1, 14, 7, 4, 10, 8, 13, 15, 12, 9, 0, 3, 5, 6, 11,
    ),
)

# --------------------------------------------------------------------------
# Compiled permutations and SP boxes (built once at import).
# --------------------------------------------------------------------------

_IP_C = compile_permutation(_IP, 64)
_FP_C = compile_permutation(_FP, 64)
_E_C = compile_permutation(_E, 32)
_PC1_C = compile_permutation(_PC1, 64)
_PC2_C = compile_permutation(_PC2, 56)
_P_C = compile_permutation(_P, 32)


def _build_sp_boxes() -> Tuple[Tuple[int, ...], ...]:
    """Fold the P permutation into each S-box.

    ``SP[i][six]`` is the 32-bit contribution of S-box ``i`` (fed the
    6-bit group ``six``) *after* the P permutation — so a round's S+P
    stage becomes eight lookups OR-ed together.
    """
    sp: List[Tuple[int, ...]] = []
    for i, sbox in enumerate(_SBOXES):
        table = []
        for six in range(64):
            row = ((six >> 4) & 0b10) | (six & 0b01)
            col = (six >> 1) & 0x0F
            s_out = sbox[row * 16 + col]
            placed = s_out << (28 - 4 * i)
            table.append(apply_permutation(_P_C, placed))
        sp.append(tuple(table))
    return tuple(sp)


_SP = _build_sp_boxes()

# --------------------------------------------------------------------------
# Parity and weak keys.
# --------------------------------------------------------------------------

# The four weak keys and twelve semi-weak keys from FIPS 74.  Weak keys
# produce palindromic key schedules (encryption == decryption); Kerberos
# key generation avoids them.
WEAK_KEYS = frozenset(
    bytes.fromhex(h)
    for h in (
        # weak
        "0101010101010101",
        "fefefefefefefefe",
        "1f1f1f1f0e0e0e0e",
        "e0e0e0e0f1f1f1f1",
        # semi-weak pairs
        "01fe01fe01fe01fe", "fe01fe01fe01fe01",
        "1fe01fe00ef10ef1", "e01fe01ff10ef10e",
        "01e001e001f101f1", "e001e001f101f101",
        "1ffe1ffe0efe0efe", "fe1ffe1ffe0efe0e",
        "011f011f010e010e", "1f011f010e010e01",
        "e0fee0fef1fef1fe", "fee0fee0fef1fef1",
    )
)


def _odd_parity_byte(value: int) -> int:
    """Return ``value`` with its low bit set so the byte has odd parity."""
    v = value & 0xFE
    ones = bin(v).count("1")
    return v | (0 if ones % 2 == 1 else 1)


#: ``bytes.translate`` table: every byte value with its parity bit fixed.
_PARITY_TABLE = bytes(_odd_parity_byte(v) for v in range(256))


def fix_parity(key: bytes) -> bytes:
    """Set each byte of an 8-byte key to odd parity (FIPS requirement)."""
    if len(key) != KEY_SIZE:
        raise KeyError_(f"DES key must be {KEY_SIZE} bytes, got {len(key)}")
    return bytes(key).translate(_PARITY_TABLE)


def check_parity(key: bytes) -> bool:
    """True if every byte of the key has odd parity."""
    if len(key) != KEY_SIZE:
        raise KeyError_(f"DES key must be {KEY_SIZE} bytes, got {len(key)}")
    return all(bin(b).count("1") % 2 == 1 for b in key)


def is_weak_key(key: bytes) -> bool:
    """True if the key is one of the FIPS 74 weak or semi-weak keys."""
    if len(key) != KEY_SIZE:
        raise KeyError_(f"DES key must be {KEY_SIZE} bytes, got {len(key)}")
    return fix_parity(key) in WEAK_KEYS


# --------------------------------------------------------------------------
# Key schedule and the cipher proper.
# --------------------------------------------------------------------------


def _walk_key_schedule(key: int) -> int:
    """PC-1, the sixteen rotations and PC-2 as the standard walks them;
    the subkeys come back packed one per 64-bit slot, K1 topmost.  Table
    construction only: :func:`_key_schedule` never runs this."""
    k56 = apply_permutation(_PC1_C, key)
    c = (k56 >> 28) & 0x0FFFFFFF
    d = k56 & 0x0FFFFFFF
    packed = 0
    for shift in _SHIFTS:
        c = rotate_left_28(c, shift)
        d = rotate_left_28(d, shift)
        packed = (packed << 64) | apply_permutation(_PC2_C, (c << 28) | d)
    return packed


def _build_schedule_tables() -> Tuple[Tuple[int, ...], ...]:
    """The whole schedule as one 256-entry table per key byte.

    Every subkey bit is a copy of one key bit, so the schedule is linear
    over OR: a key's subkeys are the OR of what each of its set bits
    contributes alone.  ``tables[i][v]`` is the packed contribution of
    byte ``i`` having value ``v`` to all sixteen subkeys, built from one
    walk of the schedule per key bit (64 single-bit probes).
    """
    tables = []
    for i in range(KEY_SIZE):
        table = [0] * 256
        for v in range(1, 256):
            low = v & -v
            table[v] = (
                _walk_key_schedule(v << (56 - 8 * i)) if v == low
                else table[v ^ low] | table[low]
            )
        tables.append(tuple(table))
    return tuple(tables)


_SCHEDULE_X = _build_schedule_tables()
_SPLIT_SCHEDULE = struct.Struct(">16Q").unpack


def _key_schedule(
    key: bytes, _tables=_SCHEDULE_X, _split=_SPLIT_SCHEDULE
) -> Tuple[int, ...]:
    """Derive the sixteen 48-bit round subkeys from an 8-byte key: eight
    table lookups OR-ed together, split into sixteen ints by one
    ``unpack``.  The trailing parameters only bind the tables as locals;
    never pass them."""
    t0, t1, t2, t3, t4, t5, t6, t7 = _tables
    k0, k1, k2, k3, k4, k5, k6, k7 = key
    return _split((
        t0[k0] | t1[k1] | t2[k2] | t3[k3] | t4[k4] | t5[k5] | t6[k6] | t7[k7]
    ).to_bytes(128, "big"))


# --------------------------------------------------------------------------
# The hot-path kernel: both Feistel halves stay in *expanded* form.
#
# E only duplicates bits, so it is linear over xor: ``E(x ^ f) == E(x) ^
# E(f)``.  A half that enters the rounds as its 48-bit expansion can stay
# expanded from IP to FP if the round function's output arrives expanded
# too — so E is folded into the *outputs* of the SP tables and never
# runs per round:
#
#     t = y ^ k                       # y is E(R); k the standard subkey
#     x ^= s0[t >> 36] | s1[t >> 24 & 4095] | ...       # x is E(L)
#
# ``_SP01``..``_SP67`` merge adjacent SP boxes (12 bits per probe) and
# hold ``E(P(S||S(i)))``; the IP byte tables emit ``E(L) << 48 | E(R)``.
# Each 12-bit chunk of an expanded half carries 8 real bits (the middle
# four of each 6-bit group), so FP reads the pre-output back through
# tables indexed by those same chunks and no compress step exists.  The
# rounds are written out, alternating the two half-block variables so
# the (L, R) swap costs nothing.  tests/crypto/test_perf_kernels.py pins
# the function against the oracle's loop kernel and the tables against
# the oracle's own E and SP.
# --------------------------------------------------------------------------

def _expand(half: int) -> int:
    """E of a 32-bit half (table construction only; never per round)."""
    return apply_permutation(_E_C, half)


def _pair6(a, b) -> Tuple[int, ...]:
    """Merge two 6-bit-indexed tables into one 12-bit-indexed table."""
    return tuple(a[i >> 6] | b[i & 0x3F] for i in range(4096))


def _real_bits(chunk: int) -> int:
    """The 8 real bits a 12-bit chunk of an expanded half carries."""
    return ((chunk >> 3) & 0xF0) | ((chunk >> 1) & 0x0F)


_SP_X = tuple(tuple(_expand(v) for v in box) for box in _SP)
_SP01 = _pair6(_SP_X[0], _SP_X[1])
_SP23 = _pair6(_SP_X[2], _SP_X[3])
_SP45 = _pair6(_SP_X[4], _SP_X[5])
_SP67 = _pair6(_SP_X[6], _SP_X[7])
#: Eight per-byte IP tables emitting ``E(L) << 48 | E(R)``.
_IP_X = tuple(
    tuple((_expand(v >> 32) << 48) | _expand(v & 0xFFFFFFFF) for v in table)
    for table in _IP_C[0]
)
#: Eight per-chunk FP tables over the expanded pre-output (R16, L16).
_FP_X = tuple(
    tuple(table[_real_bits(chunk)] for chunk in range(4096))
    for table in _FP_C[0]
)


def crypt_int(
    block: int,
    subkeys,
    _ip=_IP_X,
    _fp=_FP_X,
    s0=_SP01,
    s1=_SP23,
    s2=_SP45,
    s3=_SP67,
) -> int:
    """One DES block operation on a 64-bit int (the hot-path kernel).

    Pass ``key._enc_subkeys`` to encrypt, ``key._dec_subkeys`` to
    decrypt.  The trailing parameters exist only to bind the lookup
    tables as locals; never pass them.
    """
    ip0, ip1, ip2, ip3, ip4, ip5, ip6, ip7 = _ip
    k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15 = \
        subkeys
    b = (
        ip0[(block >> 56) & 255] | ip1[(block >> 48) & 255]
        | ip2[(block >> 40) & 255] | ip3[(block >> 32) & 255]
        | ip4[(block >> 24) & 255] | ip5[(block >> 16) & 255]
        | ip6[(block >> 8) & 255] | ip7[block & 255]
    )
    x = b >> 48                    # E(L) on even rounds
    y = b & 0xFFFFFFFFFFFF         # E(R) on even rounds
    # One round per pair of lines; ``>>`` binds tighter than ``&``.
    t = y ^ k0
    x ^= s0[t >> 36] | s1[t >> 24 & 4095] | s2[t >> 12 & 4095] | s3[t & 4095]
    t = x ^ k1
    y ^= s0[t >> 36] | s1[t >> 24 & 4095] | s2[t >> 12 & 4095] | s3[t & 4095]
    t = y ^ k2
    x ^= s0[t >> 36] | s1[t >> 24 & 4095] | s2[t >> 12 & 4095] | s3[t & 4095]
    t = x ^ k3
    y ^= s0[t >> 36] | s1[t >> 24 & 4095] | s2[t >> 12 & 4095] | s3[t & 4095]
    t = y ^ k4
    x ^= s0[t >> 36] | s1[t >> 24 & 4095] | s2[t >> 12 & 4095] | s3[t & 4095]
    t = x ^ k5
    y ^= s0[t >> 36] | s1[t >> 24 & 4095] | s2[t >> 12 & 4095] | s3[t & 4095]
    t = y ^ k6
    x ^= s0[t >> 36] | s1[t >> 24 & 4095] | s2[t >> 12 & 4095] | s3[t & 4095]
    t = x ^ k7
    y ^= s0[t >> 36] | s1[t >> 24 & 4095] | s2[t >> 12 & 4095] | s3[t & 4095]
    t = y ^ k8
    x ^= s0[t >> 36] | s1[t >> 24 & 4095] | s2[t >> 12 & 4095] | s3[t & 4095]
    t = x ^ k9
    y ^= s0[t >> 36] | s1[t >> 24 & 4095] | s2[t >> 12 & 4095] | s3[t & 4095]
    t = y ^ k10
    x ^= s0[t >> 36] | s1[t >> 24 & 4095] | s2[t >> 12 & 4095] | s3[t & 4095]
    t = x ^ k11
    y ^= s0[t >> 36] | s1[t >> 24 & 4095] | s2[t >> 12 & 4095] | s3[t & 4095]
    t = y ^ k12
    x ^= s0[t >> 36] | s1[t >> 24 & 4095] | s2[t >> 12 & 4095] | s3[t & 4095]
    t = x ^ k13
    y ^= s0[t >> 36] | s1[t >> 24 & 4095] | s2[t >> 12 & 4095] | s3[t & 4095]
    t = y ^ k14
    x ^= s0[t >> 36] | s1[t >> 24 & 4095] | s2[t >> 12 & 4095] | s3[t & 4095]
    t = x ^ k15
    y ^= s0[t >> 36] | s1[t >> 24 & 4095] | s2[t >> 12 & 4095] | s3[t & 4095]
    # Pre-output is (R16, L16); after 16 alternations x is L16, y is R16.
    fp0, fp1, fp2, fp3, fp4, fp5, fp6, fp7 = _fp
    return (
        fp0[y >> 36] | fp1[(y >> 24) & 4095]
        | fp2[(y >> 12) & 4095] | fp3[y & 4095]
        | fp4[x >> 36] | fp5[(x >> 24) & 4095]
        | fp6[(x >> 12) & 4095] | fp7[x & 4095]
    )


#: Resolved lazily by DesKey.from_bytes (keycache imports this module).
_from_bytes_cached = None


class DesKey:
    """A scheduled DES key.

    >>> key = DesKey(bytes.fromhex("133457799BBCDFF1"))
    >>> key.encrypt_block(bytes.fromhex("0123456789ABCDEF")).hex()
    '85e813540f0ab405'

    ``allow_weak`` admits the FIPS weak keys (needed only by tests that
    demonstrate why they are rejected elsewhere).  Parity is *normalized*
    rather than rejected, matching the historical library: key bytes have
    their parity bit fixed up on entry.

    Constructing a ``DesKey`` derives all sixteen round subkeys.  Hot
    paths that repeatedly rebuild keys from the same 8 bytes (ticket
    session keys, principal keys unsealed per request) should use
    :meth:`from_bytes`, which consults the process-wide schedule cache
    in :mod:`repro.crypto.keycache`.
    """

    __slots__ = ("_key", "_enc_subkeys", "_rows")

    @classmethod
    def from_bytes(cls, key: bytes, allow_weak: bool = False) -> "DesKey":
        """Cached constructor: like ``DesKey(key, allow_weak)`` but the
        derived key schedule is reused across calls (LRU, see
        :mod:`repro.crypto.keycache`)."""
        global _from_bytes_cached
        if _from_bytes_cached is None:
            from repro.crypto.keycache import des_key_from_bytes
            _from_bytes_cached = des_key_from_bytes
        return _from_bytes_cached(key, allow_weak)

    def __init__(self, key: bytes, allow_weak: bool = False) -> None:
        if not isinstance(key, (bytes, bytearray)):
            raise KeyError_(f"key must be bytes, got {type(key).__name__}")
        if len(key) != KEY_SIZE:
            raise KeyError_(f"DES key must be {KEY_SIZE} bytes, got {len(key)}")
        key = fix_parity(bytes(key))
        if not allow_weak and key in WEAK_KEYS:
            raise KeyError_(f"refusing weak DES key {key.hex()}")
        self._key = key
        self._enc_subkeys = _key_schedule(key)
        # The subkeys spread for the wide kernel's lanes, built the first
        # time the key rides one (``des_simd.keymat_of``).
        self._rows = None

    @property
    def _dec_subkeys(self) -> tuple:
        """The schedule backwards, made when a single-lane decryption
        asks for it rather than kept on each of the thousands of cached
        keys (the lanes read the spread rows bottom up instead)."""
        return self._enc_subkeys[::-1]

    @property
    def key_bytes(self) -> bytes:
        return self._key

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
        out = crypt_int(bytes_to_int(block), self._enc_subkeys)
        return int_to_bytes(out, BLOCK_SIZE)

    def decrypt_block(self, block: bytes) -> bytes:
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
        out = crypt_int(bytes_to_int(block), self._dec_subkeys)
        return int_to_bytes(out, BLOCK_SIZE)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DesKey):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        # Never print key material; show a short fingerprint instead.
        fp = hex(hash(self._key) & 0xFFFF)
        return f"DesKey(<fingerprint {fp}>)"
