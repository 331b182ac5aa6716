"""The DES oracle: loop-form block function, byte-path modes, seal frame.

Until PR 17 this lived in ``src/`` as ``des.crypt_int_ref``/``_feistel``
and ``repro.crypto.reference``.  Production runs ``des.crypt_int``,
``des_simd.crypt_wide`` and the int-domain loops of ``repro.crypto.modes``;
this file is what they are judged against, bit for bit, and is itself
anchored to FIPS 46 in ``test_reference_des.py``.

``_feistel``, ``crypt_int_ref`` and the six ``*_ref`` mode loops are
moved, not rewritten.  What is new makes the oracle stand apart from what
it checks: its permutations and SP boxes are compiled *here* from the
published FIPS tuples (a wrong production table cannot hide in a shared
one), the seal frame is stated a second time (:func:`frame_ref`), and
:func:`seal_prefix_state` is derived from :func:`pcbc_encrypt_ref`, not
from the batch runs.  Since PR 18 the key schedule is its own too
(:func:`key_schedule_ref`, bit by bit from the published PC-1, shift and
PC-2 tuples): production's is table-driven, and a wrong table must not
hide in subkeys both sides share.  A ``DesKey`` is only the carrier of
the eight key bytes; nothing is imported from ``repro.crypto.modes`` or
``repro.crypto.keycache``.

Never edit this file together with what it checks, and do not "optimize"
it: per-block conversions are its reason to exist.
"""

from repro.crypto.bits import (
    apply_permutation,
    bytes_to_int,
    compile_permutation,
    int_to_bytes,
)
from repro.crypto.des import (
    _E, _FP, _IP, _P, _PC1, _PC2, _SBOXES, _SHIFTS, BLOCK_SIZE, DesKey,
)

_MASK64 = (1 << 64) - 1

ZERO_IV = b"\x00" * BLOCK_SIZE

_IP_C = compile_permutation(_IP, 64)
_FP_C = compile_permutation(_FP, 64)
_E_C = compile_permutation(_E, 32)
_P_C = compile_permutation(_P, 32)


def _sp_box(i: int, six: int) -> int:
    """S-box ``i`` fed the 6-bit group ``six``, then P (FIPS 46: the
    outer two bits pick the row, the middle four the column)."""
    row = ((six >> 5) << 1) | (six & 1)
    col = (six >> 1) & 0xF
    return apply_permutation(_P_C, _SBOXES[i][16 * row + col] << (28 - 4 * i))


_SP = tuple(tuple(_sp_box(i, six) for six in range(64)) for i in range(8))


def _feistel(right: int, subkey: int) -> int:
    """The DES round function f(R, K)."""
    t = apply_permutation(_E_C, right) ^ subkey
    sp = _SP
    return (
        sp[0][(t >> 42) & 0x3F]
        | sp[1][(t >> 36) & 0x3F]
        | sp[2][(t >> 30) & 0x3F]
        | sp[3][(t >> 24) & 0x3F]
        | sp[4][(t >> 18) & 0x3F]
        | sp[5][(t >> 12) & 0x3F]
        | sp[6][(t >> 6) & 0x3F]
        | sp[7][t & 0x3F]
    )


def crypt_int_ref(block: int, subkeys) -> int:
    """The straightforward per-round block function (reference kernel).

    Computes exactly the same permutation as ``des.crypt_int``; kept as
    the oracle for the kernel-equivalence property tests.  Pass
    ``key_schedule_ref(key)`` to encrypt, the same reversed to decrypt.
    """
    b = apply_permutation(_IP_C, block)
    left = (b >> 32) & 0xFFFFFFFF
    right = b & 0xFFFFFFFF
    for subkey in subkeys:
        left, right = right, left ^ _feistel(right, subkey)
    # Final swap is built into taking (R16, L16).
    return apply_permutation(_FP_C, (right << 32) | left)


def key_schedule_ref(key: bytes) -> tuple:
    """The sixteen 48-bit round subkeys of an 8-byte key (FIPS 46): PC-1
    picks 56 of the 64 key bits into halves C and D, each round rotates
    both left by its shift, and PC-2 picks 48 bits of CD — one bit at a
    time, every position 1-indexed from the left as published."""
    bits = [(key[i // 8] >> (7 - i % 8)) & 1 for i in range(64)]
    cd = [bits[pos - 1] for pos in _PC1]
    c, d = cd[:28], cd[28:]
    subkeys = []
    for shift in _SHIFTS:
        c = c[shift:] + c[:shift]
        d = d[shift:] + d[:shift]
        cd = c + d
        subkey = 0
        for pos in _PC2:
            subkey = (subkey << 1) | cd[pos - 1]
        subkeys.append(subkey)
    return tuple(subkeys)


def _enc_subkeys(key: DesKey) -> tuple:
    return key_schedule_ref(key.key_bytes)


def _dec_subkeys(key: DesKey) -> tuple:
    """Decryption is the same network with the subkeys in reverse."""
    return key_schedule_ref(key.key_bytes)[::-1]


def _require_blocks(data: bytes, what: str) -> None:
    if len(data) % BLOCK_SIZE != 0:
        raise ValueError(
            f"{what} length {len(data)} is not a multiple of {BLOCK_SIZE}"
        )


def _require_iv(iv: bytes) -> int:
    if len(iv) != BLOCK_SIZE:
        raise ValueError(f"IV must be {BLOCK_SIZE} bytes, got {len(iv)}")
    return bytes_to_int(iv)


def _crypt_block(block: bytes, subkeys) -> bytes:
    return int_to_bytes(
        crypt_int_ref(bytes_to_int(block), subkeys), BLOCK_SIZE
    )


def ecb_encrypt_ref(key: DesKey, data: bytes) -> bytes:
    _require_blocks(data, "plaintext")
    subkeys = _enc_subkeys(key)
    out = bytearray()
    for i in range(0, len(data), BLOCK_SIZE):
        out += _crypt_block(data[i : i + BLOCK_SIZE], subkeys)
    return bytes(out)


def ecb_decrypt_ref(key: DesKey, data: bytes) -> bytes:
    _require_blocks(data, "ciphertext")
    subkeys = _dec_subkeys(key)
    out = bytearray()
    for i in range(0, len(data), BLOCK_SIZE):
        out += _crypt_block(data[i : i + BLOCK_SIZE], subkeys)
    return bytes(out)


def cbc_encrypt_ref(key: DesKey, data: bytes, iv: bytes = ZERO_IV) -> bytes:
    _require_blocks(data, "plaintext")
    prev = _require_iv(iv)
    subkeys = _enc_subkeys(key)
    out = bytearray()
    for i in range(0, len(data), BLOCK_SIZE):
        block = bytes_to_int(data[i : i + BLOCK_SIZE])
        prev = crypt_int_ref(block ^ prev, subkeys)
        out += int_to_bytes(prev, BLOCK_SIZE)
    return bytes(out)


def cbc_decrypt_ref(key: DesKey, data: bytes, iv: bytes = ZERO_IV) -> bytes:
    _require_blocks(data, "ciphertext")
    prev = _require_iv(iv)
    subkeys = _dec_subkeys(key)
    out = bytearray()
    for i in range(0, len(data), BLOCK_SIZE):
        block = bytes_to_int(data[i : i + BLOCK_SIZE])
        out += int_to_bytes(crypt_int_ref(block, subkeys) ^ prev, BLOCK_SIZE)
        prev = block
    return bytes(out)


def pcbc_encrypt_ref(key: DesKey, data: bytes, iv: bytes = ZERO_IV) -> bytes:
    _require_blocks(data, "plaintext")
    chain = _require_iv(iv)  # holds P_{i-1} xor C_{i-1}
    subkeys = _enc_subkeys(key)
    out = bytearray()
    for i in range(0, len(data), BLOCK_SIZE):
        plain = bytes_to_int(data[i : i + BLOCK_SIZE])
        cipher = crypt_int_ref(plain ^ chain, subkeys)
        out += int_to_bytes(cipher, BLOCK_SIZE)
        chain = (plain ^ cipher) & _MASK64
    return bytes(out)


def pcbc_decrypt_ref(key: DesKey, data: bytes, iv: bytes = ZERO_IV) -> bytes:
    _require_blocks(data, "ciphertext")
    chain = _require_iv(iv)
    subkeys = _dec_subkeys(key)
    out = bytearray()
    for i in range(0, len(data), BLOCK_SIZE):
        cipher = bytes_to_int(data[i : i + BLOCK_SIZE])
        plain = crypt_int_ref(cipher, subkeys) ^ chain
        out += int_to_bytes(plain, BLOCK_SIZE)
        chain = (plain ^ cipher) & _MASK64
    return bytes(out)


# The seal frame, stated a second time:
#     | "KRB4" | length u32 | data ... | zero pad to a block | "ATHENA88" |


def _header_ref(data_len: int) -> bytes:
    return b"KRB4" + data_len.to_bytes(4, "big")


def frame_ref(data: bytes) -> bytes:
    """The plaintext a seal encrypts."""
    body = _header_ref(len(data)) + bytes(data)
    while len(body) % BLOCK_SIZE:
        body += b"\x00"
    return body + b"ATHENA88"


def open_frame_ref(plain: bytes) -> bytes:
    """The data a decrypted seal frame carries; ``ValueError`` if it is
    not a frame (wrong key, tampering)."""
    if len(plain) < 2 * BLOCK_SIZE or plain[:4] != b"KRB4":
        raise ValueError("not a seal frame: bad magic")
    data = plain[8 : 8 + int.from_bytes(plain[4:8], "big")]
    if plain != frame_ref(data):
        raise ValueError("not a seal frame: bad length, pad or trailer")
    return data


def seal_ref(key: DesKey, data: bytes, iv: bytes = ZERO_IV) -> bytes:
    """What ``seal(key, data, iv)`` must produce (PCBC, the default)."""
    return pcbc_encrypt_ref(key, frame_ref(data), iv)


def unseal_ref(key: DesKey, sealed: bytes, iv: bytes = ZERO_IV) -> bytes:
    return open_frame_ref(pcbc_decrypt_ref(key, sealed, iv))


def seal_prefix_state(key: DesKey, data_len: int, prefix: bytes):
    """PCBC state ``(cipher_prefix, chain)`` after sealing the frame
    header plus ``prefix`` (whole blocks, at most ``data_len`` — the
    *total* data length the header encodes): the reference encryption
    of header + prefix, and its last plaintext block xor its last
    cipher block."""
    _require_blocks(prefix, "prefix")
    if len(prefix) > data_len:
        raise ValueError(f"prefix of {len(prefix)} exceeds data_len {data_len}")
    plain = _header_ref(data_len) + bytes(prefix)
    cipher = pcbc_encrypt_ref(key, plain)
    chain = bytes_to_int(plain[-BLOCK_SIZE:]) ^ bytes_to_int(cipher[-BLOCK_SIZE:])
    return cipher, chain
