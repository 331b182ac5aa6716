"""Shared by the tests that drive a one-pass shape across its threshold."""

from repro.crypto import des_simd
from repro.crypto.modes import WIDE_MIN_BLOCKS

#: Block or lane counts astride the one-pass threshold, and astride twice it.
ASTRIDE = tuple(
    n for w in (WIDE_MIN_BLOCKS, 2 * WIDE_MIN_BLOCKS)
    for n in (w - 1, w, w + 1)
)


def spy_on_key_matrices(monkeypatch):
    """``(lanes, key matrix shape)`` of every wide pass made from here
    on; stays empty on a host without numpy."""
    passes = []
    if des_simd.available():
        real = des_simd.crypt_wide
        monkeypatch.setattr(
            des_simd, "crypt_wide",
            lambda b, km: passes.append((len(b), km.shape)) or real(b, km),
        )
    return passes
