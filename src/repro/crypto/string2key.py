"""The one-way function from a user's password to their DES private key.

Paper, "Conventions": *"In the case of a user, the private key is the
result of a one-way function applied to the user's password."*  And in
Section 4.2: *"The password is converted to a DES key and used to decrypt
the response from the authentication server."*

This module implements the historical Kerberos-4 ``des_string_to_key``
algorithm:

1. pad the password with NULs to a multiple of 8 bytes;
2. *fan-fold* the 8-byte chunks into a single 64-bit value, reversing the
   bit order of every second chunk before XOR-ing it in;
3. fix the folded value to odd parity per byte (and nudge it away from a
   weak key) to obtain a temporary key;
4. compute the DES-CBC checksum of the padded password under that
   temporary key (with the key itself as IV); the final cipher block,
   parity-fixed and weak-key-nudged, is the user's private key.

Step 4 is what makes the function one-way: recovering the password from
the key requires inverting a DES-CBC MAC.
"""

from __future__ import annotations

import struct

from repro.crypto.bits import bytes_to_int, int_to_bytes, reverse_block_bits
from repro.crypto.des import (
    BLOCK_SIZE,
    DesKey,
    WEAK_KEYS,
    fix_parity,
)
from repro.crypto.modes import cbc_encrypt


def _unweaken(key: bytes) -> bytes:
    """Nudge a weak key as the historical library did (XOR last byte 0xF0)."""
    if key in WEAK_KEYS:
        key = key[:-1] + bytes([key[-1] ^ 0xF0])
    return key


def string_to_key(password: str, salt: str = "") -> DesKey:
    """Derive a user's DES private key from a password.

    ``salt`` is appended to the password before folding.  The 1988
    implementation had no salt; realm-based salting is offered for the
    cross-realm tests and defaults to the faithful empty string.

    Derivations are memoized per ``(password, salt)``
    (:mod:`repro.crypto.keycache`): a workstation login runs this
    one-way function several times — kinit, pre-authentication, reply
    unsealing — and the fan-fold + CBC-MAC need only happen once.
    """
    from repro.crypto.keycache import memoized_string_to_key

    return memoized_string_to_key(password, salt, _derive_string_to_key)


def _derive_string_to_key(password: str, salt: str) -> DesKey:
    """The actual (uncached) fan-fold + CBC-MAC derivation."""
    if not isinstance(password, str):
        raise TypeError(f"password must be str, got {type(password).__name__}")
    data = (password + salt).encode("utf-8")
    if not data:
        raise ValueError("password must not be empty")

    padded = data + b"\x00" * ((-len(data)) % BLOCK_SIZE)

    # Fan-fold: XOR successive 8-byte chunks, bit-reversing every second
    # one.  Reversal is linear over xor, so the odd chunks are folded
    # forward and their fold reversed once.
    chunks = struct.unpack(f">{len(padded) // BLOCK_SIZE}Q", padded)
    even = odd = 0
    for chunk in chunks[0::2]:
        even ^= chunk
    for chunk in chunks[1::2]:
        odd ^= chunk
    odd = bytes_to_int(reverse_block_bits(int_to_bytes(odd, BLOCK_SIZE)))
    temp = _unweaken(fix_parity(int_to_bytes(even ^ odd, BLOCK_SIZE)))
    temp_key = DesKey(temp, allow_weak=True)

    # CBC-checksum the padded password under the temporary key; the last
    # ciphertext block becomes the real key.
    mac = cbc_encrypt(temp_key, padded, iv=temp)[-BLOCK_SIZE:]
    final = _unweaken(fix_parity(mac))
    return DesKey(final, allow_weak=True)
