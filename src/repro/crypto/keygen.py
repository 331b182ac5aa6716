"""Session-key and random-key generation.

Paper, Section 2.1: *"Kerberos also generates temporary private keys,
called session keys, which are given to two clients and no one else."*
And Section 6.3, on registering servers: *"usually this is an
automatically generated random key"*.

The generator is a deterministic random bit generator built from DES in
counter mode: a seed key encrypts an incrementing counter, and each
output block (parity-fixed, weak keys skipped) becomes a fresh DES key.
Determinism matters for this reproduction — every experiment and test can
replay the exact same key stream from a seed — while the construction
still models the real property that session keys are unpredictable
without the generator's internal state.

There is one block source, :meth:`KeyGenerator._next_blocks`: a run of
*n* counters is *n* independent blocks under one key, i.e. one
:func:`~repro.crypto.modes.ecb_encrypt` call, which rides the wide
kernel from ``WIDE_MIN_BLOCKS`` blocks up.  A KDC batch draws all its
tickets' session keys in one :meth:`KeyGenerator.session_keys_bytes`
call; the stream, and so every key, is the one *n* single draws read.
"""

from __future__ import annotations

import struct
from typing import List

from repro.crypto.des import (
    BLOCK_SIZE,
    DesKey,
    WEAK_KEYS,
    _PARITY_TABLE,
    fix_parity,
)
from repro.crypto.modes import ecb_encrypt

_DEFAULT_SEED = b"\x9aTHENA\x88\x17seed for the Kerberos reproduction"


def _seed_to_key(seed: bytes) -> DesKey:
    """Fold arbitrary seed bytes into a non-weak DES key."""
    folded = bytearray(BLOCK_SIZE)
    for i, b in enumerate(seed):
        folded[i % BLOCK_SIZE] ^= b
    folded[0] ^= len(seed) & 0xFF
    key = fix_parity(bytes(folded))
    if key in WEAK_KEYS:
        key = key[:-1] + bytes([key[-1] ^ 0xF0])
    return DesKey(key, allow_weak=True)


class KeyGenerator:
    """Deterministic generator of DES session keys and random bytes.

    >>> gen = KeyGenerator(seed=b"example")
    >>> k1 = gen.session_key()
    >>> k2 = gen.session_key()
    >>> k1 == k2
    False
    >>> KeyGenerator(seed=b"example").session_key() == k1
    True
    """

    def __init__(self, seed: bytes = _DEFAULT_SEED) -> None:
        if not isinstance(seed, (bytes, bytearray)):
            raise TypeError(f"seed must be bytes, got {type(seed).__name__}")
        self._key = _seed_to_key(bytes(seed))
        self._counter = 0

    def _next_blocks(self, n: int) -> bytes:
        """The next ``n`` output blocks of the stream, joined."""
        counters = range(self._counter, self._counter + n)
        self._counter += n
        return ecb_encrypt(self._key, struct.pack(f">{n}Q", *counters))

    def session_keys_bytes(self, n: int) -> List[bytes]:
        """The raw bytes of ``n`` fresh, parity-correct, non-weak keys:
        the next ``n`` non-weak blocks of the stream, exactly what ``n``
        single draws return and with the counter left where they leave
        it (a weak candidate costs one more block either way).  No key
        schedule is expanded — the KDC only embeds the bytes in tickets
        and replies, it never encrypts with a session key."""
        keys: List[bytes] = []
        while len(keys) < n:
            run = self._next_blocks(n - len(keys)).translate(_PARITY_TABLE)
            keys += [
                key for i in range(0, len(run), BLOCK_SIZE)
                if (key := run[i : i + BLOCK_SIZE]) not in WEAK_KEYS
            ]
        return keys

    def session_key_bytes(self) -> bytes:
        """One draw of :meth:`session_keys_bytes`."""
        return self.session_keys_bytes(1)[0]

    def session_key(self) -> DesKey:
        """Produce a fresh, parity-correct, non-weak DES key."""
        return DesKey(self.session_key_bytes())

    def random_bytes(self, n: int) -> bytes:
        """Produce ``n`` pseudo-random bytes (nonces, confounders)."""
        if n < 0:
            raise ValueError(f"negative byte count {n}")
        return self._next_blocks(-(-n // BLOCK_SIZE))[:n]

    def random_u32(self) -> int:
        return int.from_bytes(self.random_bytes(4), "big")

    def fork(self, label: bytes) -> "KeyGenerator":
        """Derive an independent generator (e.g. one per KDC replica)."""
        return KeyGenerator(seed=self._key.key_bytes + bytes(label))
