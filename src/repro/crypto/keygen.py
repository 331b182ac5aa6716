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
"""

from __future__ import annotations

from repro.crypto.des import (
    BLOCK_SIZE,
    DesKey,
    WEAK_KEYS,
    fix_parity,
)

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

    def _next_block(self) -> bytes:
        block = self._counter.to_bytes(BLOCK_SIZE, "big")
        self._counter += 1
        return self._key.encrypt_block(block)

    def session_key_bytes(self) -> bytes:
        """Produce the raw bytes of a fresh, parity-correct, non-weak key.

        Consumes exactly the same DRBG stream as :func:`session_key` but
        skips the key-schedule expansion — the KDC only
        embeds the bytes in tickets/replies and never encrypts with the
        session key itself.
        """
        while True:
            candidate = fix_parity(self._next_block())
            if candidate not in WEAK_KEYS:
                return candidate

    def session_key(self) -> DesKey:
        """Produce a fresh, parity-correct, non-weak DES key."""
        return DesKey(self.session_key_bytes())

    def random_bytes(self, n: int) -> bytes:
        """Produce ``n`` pseudo-random bytes (nonces, confounders)."""
        if n < 0:
            raise ValueError(f"negative byte count {n}")
        out = bytearray()
        while len(out) < n:
            out += self._next_block()
        return bytes(out[:n])

    def random_u32(self) -> int:
        return int.from_bytes(self.random_bytes(4), "big")

    def fork(self, label: bytes) -> "KeyGenerator":
        """Derive an independent generator (e.g. one per KDC replica)."""
        return KeyGenerator(seed=self._key.key_bytes + bytes(label))
