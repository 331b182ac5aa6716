"""Wide-lane DES: one Feistel pass over N independent messages.

:func:`repro.crypto.des.crypt_int2` interleaves two messages per pass;
this module generalizes the idea to *all* messages of a KDC batch at
once.  Each of the 16 rounds becomes a handful of table *gathers* over
an N-wide vector of block states (numpy fancy indexing), so the
per-round interpreter overhead — the dominant cost of the scalar
kernels — is paid once per batch instead of once per block.

The tables are the exact ones the scalar kernels use (`_IP_B`/`_FP_B`
byte permutations, the 16-bit paired E tables, the 12-bit paired SP
tables), converted to ``uint64`` arrays on first use, so the wide path
is bit-identical by construction; the property suite asserts it against
``crypt_int_ref`` anyway.

numpy is optional: the container may lack it, and
:func:`repro.crypto.reference.reference_kernels` must be able to
benchmark without it.  Everything here degrades to ``available() ==
False`` and the caller (``repro.crypto.modes``, which also owns the lane
threshold ``WIDE_MIN_LANES``) falls back to the two-lane kernel.
"""

from typing import Optional

try:  # gated: the wide path is an accelerator, never a requirement
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-free hosts
    _np = None

from repro.crypto import des as _des

_tables = None


def available() -> bool:
    """True when the wide kernel can run (numpy importable)."""
    return _np is not None


def _get_tables():
    """The scalar kernels' lookup tables as uint64 numpy arrays."""
    global _tables
    if _tables is None:
        u64 = lambda t: _np.array(t, dtype=_np.uint64)  # noqa: E731
        _tables = (
            tuple(u64(t) for t in _des._IP_B),
            tuple(u64(t) for t in _des._FP_B),
            u64(_des._E16_0),
            u64(_des._E16_1),
            u64(_des._SP01),
            u64(_des._SP23),
            u64(_des._SP45),
            u64(_des._SP67),
        )
    return _tables


def keymat(subkeys_per_lane) -> "Optional[_np.ndarray]":
    """Stack per-lane 16-round subkey tuples into a (16, N) array."""
    return _np.array(subkeys_per_lane, dtype=_np.uint64).T


def crypt_wide(blocks, km):
    """One DES operation on each lane of an N-wide block vector.

    ``blocks`` is a uint64 array of input blocks, ``km`` a (16, N)
    uint64 array of round keys (``keymat`` of ``_enc_subkeys`` to
    encrypt, of ``_dec_subkeys`` to decrypt).  Returns the output
    blocks as a new uint64 array; lane *i* equals
    ``crypt_int(blocks[i], subkeys[i])``.
    """
    ip, fp, e0, e1, sp01, sp23, sp45, sp67 = _get_tables()
    b = ip[0][(blocks >> 56) & 255]
    b |= ip[1][(blocks >> 48) & 255]
    b |= ip[2][(blocks >> 40) & 255]
    b |= ip[3][(blocks >> 32) & 255]
    b |= ip[4][(blocks >> 24) & 255]
    b |= ip[5][(blocks >> 16) & 255]
    b |= ip[6][(blocks >> 8) & 255]
    b |= ip[7][blocks & 255]
    x = (b >> 32) & 0xFFFFFFFF
    y = b & 0xFFFFFFFF
    for r in range(0, 16, 2):
        t = (e0[y >> 16] | e1[y & 65535]) ^ km[r]
        x = x ^ (sp01[t >> 36] | sp23[(t >> 24) & 4095]
                 | sp45[(t >> 12) & 4095] | sp67[t & 4095])
        t = (e0[x >> 16] | e1[x & 65535]) ^ km[r + 1]
        y = y ^ (sp01[t >> 36] | sp23[(t >> 24) & 4095]
                 | sp45[(t >> 12) & 4095] | sp67[t & 4095])
    # Swap halves and apply the final permutation, byte-at-a-time like
    # the scalar kernel.
    b = (y << 32) | x
    out = fp[0][(b >> 56) & 255]
    out |= fp[1][(b >> 48) & 255]
    out |= fp[2][(b >> 40) & 255]
    out |= fp[3][(b >> 32) & 255]
    out |= fp[4][(b >> 24) & 255]
    out |= fp[5][(b >> 16) & 255]
    out |= fp[6][(b >> 8) & 255]
    out |= fp[7][b & 255]
    return out
