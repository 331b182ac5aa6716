"""Wide-lane DES: one Feistel pass over N independent block operations.

:func:`repro.crypto.des.crypt_int` runs one block per call; this module
runs one block on each of N *lanes* per call, so the per-round
interpreter overhead — the dominant single-lane cost — is paid once per
pass instead of once per block.  A lane is a block operation that waits
for no other: when a KDC batch is sealed, one block of *every* message
(PCBC chains each message to itself); when it is unsealed or drawn
under ECB, every block of every message at once.  The three shapes
live in ``repro.crypto.modes``.

A pass is bulk IP, sixteen rounds (:func:`_rounds`, the only round
loop) and bulk FP: :func:`crypt_wide` is the three in a row,
:func:`pcbc_encrypt_wide` the sealing *run* around them.

The representation is the single-lane kernel's (both Feistel halves
kept E-expanded, E folded into the SP-pair table outputs), laid out for
gathers: each 12-bit chunk of an expanded half sits in its own 16-bit
field of a little-endian ``uint64``, and :func:`keymat` spreads the
subkeys the same way once per run.  The gather indices of a round are
then a zero-copy ``uint16`` *view* of ``y ^ km[r]`` — no shifts, no
masks.  A chunk leaves the top nibble of its field free, so ``keymat``
writes the field's number there and the four 4,096-entry SP-pair tables
sit stacked in one array: one gather per round.  The tables are the
single-lane kernel's own, spread on first use; every dtype is
explicitly little-endian, so a big-endian host computes the same lanes.

numpy is optional: everything here degrades to ``available() ==
False`` and the caller (``repro.crypto.modes``, which also owns the
thresholds) falls back to its single-message loops.
"""

try:  # gated: the wide path is an accelerator, never a requirement
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-free hosts
    _np = None

from repro.crypto import des as _des

_U64 = "<u8"
_U16 = "<u2"

#: Table-select nibbles: field *f* of a spread value carries ``f << 12``.
_SELECT = (3 << 60) | (2 << 44) | (1 << 28)

_tables = None


def available() -> bool:
    """True when the wide kernel can run (numpy importable)."""
    return _np is not None


def _spread(v):
    """Park each 12-bit chunk of a 48-bit value (int or array) in its
    own 16-bit field; the most significant chunk lands in field 3."""
    return (
        ((v >> 36) << 48) | (((v >> 24) & 4095) << 32)
        | (((v >> 12) & 4095) << 16) | (v & 4095)
    )


def _get_tables():
    """The single-lane kernel's tables, spread, as flat ``<u8`` arrays.

    Each array stacks its sub-tables in the order the index view meets
    them: IP by little-endian input byte (after the eight table
    offsets that turn a byte view into flat indices), SP and FP by
    field number.
    """
    global _tables
    if _tables is None:
        def stack(tables):
            return _np.array(
                [v for table in tables for v in table], dtype=_U64
            )

        ip = _des._IP_X[::-1]
        fp = _des._FP_X
        _tables = (
            _np.arange(0, 2048, 256, dtype=_U16),
            stack([[_spread(v >> 48) for v in t] for t in ip]),
            stack([[_spread(v & 0xFFFFFFFFFFFF) for v in t] for t in ip]),
            _spread(stack(
                [_des._SP67, _des._SP45, _des._SP23, _des._SP01]
            )),
            stack(fp[3::-1]),
            stack(fp[:3:-1]),
        )
    return _tables


def keymat(subkeys_per_lane):
    """The only constructor of a key matrix: stack per-lane 16-round
    subkey tuples into a (16, N) ``<u8`` array whose rows are in
    *spread* form — each 12-bit chunk of a subkey in its own 16-bit
    field, the field's table-select nibble set above it."""
    km = _spread(_np.array(subkeys_per_lane, dtype=_U64)) | _SELECT
    return _np.ascontiguousarray(km.T)


def _ip(blocks):
    """Bulk IP: a flat ``<u8`` block vector to its halves ``(E(L),
    E(R))``, both spread — one gather each, whatever the vector holds."""
    byte_base, ip_x, ip_y = _get_tables()[:3]
    merge = _np.bitwise_or.reduceat
    n = len(blocks)
    per_lane8 = _np.arange(0, 8 * n, 8)
    # Flat indices into the eight stacked 256-entry IP tables.
    idx = (blocks.view("u1").reshape(n, 8) + byte_base).ravel()
    return merge(ip_x.take(idx), per_lane8), merge(ip_y.take(idx), per_lane8)


def _lanes(km, n):
    """What the rounds need per lane count: the key matrix's rows, a
    ``<u8`` scratch with its ``uint16`` view — every gather index is
    that one view: the buffer's dtype, not the host's byte order, fixes
    which field is which — and where each lane's four fields start."""
    t = _np.empty(n, dtype=_U64)
    return list(km), t, t.view(_U16), _np.arange(0, 4 * n, 4)


def _rounds(x, y, rows, t, fields, per_lane4):
    """The sixteen rounds, in place on the spread halves: the one round
    loop, under :func:`crypt_wide` and :func:`pcbc_encrypt_wide` alike."""
    gather = _get_tables()[3].take
    merge = _np.bitwise_or.reduceat
    xor = _np.bitwise_xor
    for r in range(0, 16, 2):
        xor(y, rows[r], out=t)
        x ^= merge(gather(fields), per_lane4)
        xor(x, rows[r + 1], out=t)
        y ^= merge(gather(fields), per_lane4)


def _fp(x, y):
    """Bulk FP of the pre-output ``(R16, L16) = (y, x)``; each field
    still carries 8 real bits."""
    fp_y, fp_x = _get_tables()[4:]
    merge = _np.bitwise_or.reduceat
    per_lane4 = _np.arange(0, 4 * len(x), 4)
    out = merge(fp_y.take((y ^ _SELECT).view(_U16)), per_lane4)
    out |= merge(fp_x.take((x ^ _SELECT).view(_U16)), per_lane4)
    return out


def crypt_wide(blocks, km):
    """One DES operation on each lane of an N-wide block vector.

    ``blocks`` is a uint64 array of input blocks, ``km`` the
    :func:`keymat` of the lanes' ``_enc_subkeys`` (to encrypt) or
    ``_dec_subkeys`` (to decrypt).  Returns the output blocks as a new
    uint64 array; lane *i* equals ``crypt_int(blocks[i], subkeys[i])``.
    """
    x, y = _ip(_np.asarray(blocks, dtype=_U64))
    _rounds(x, y, *_lanes(km, len(x)))
    return _fp(x, y)


def pcbc_encrypt_wide(plain, chains, km, running):
    """PCBC-encrypt the columns of a ``(depth, lanes)`` plaintext
    matrix (``depth`` >= 1), lane *j* from ``chains[j]`` under column
    *j* of ``km``; ``running[i]`` lanes — a prefix, the lanes being
    sorted longest first — are still running at step *i*.  Returns the
    ciphertext matrix; below a lane's last running step it is garbage.

    IP and FP are bit permutations, so they commute with the chain's
    xor: with ``D_0 = P_0 ^ chain``, ``D_i = P_i ^ P_{i-1}``, step *i*
    encrypts ``D_i ^ C_{i-1}``, and ``IP(C_{i-1})`` **is** step
    *i - 1*'s pre-output, halves swapped — already expanded and spread.
    So a run is one bulk IP over every ``D_i``, sixteen rounds a step
    and one bulk FP over every pre-output: two gathers a *run* where
    stepping :func:`crypt_wide` made two a *step*.
    """
    depth, lanes = plain.shape
    d = plain.copy()
    d[0] ^= chains
    d[1:] ^= plain[:-1]
    x, y = _ip(d.ravel())
    x, y = x.reshape(depth, lanes), y.reshape(depth, lanes)
    active = None
    for step, alive in enumerate(running):
        if alive != active:  # re-cut to the prefix still running
            active = alive
            cut = _lanes(km[:, :active], active)
        xs, ys = x[step, :active], y[step, :active]
        if step:
            xs ^= y[step - 1, :active]
            ys ^= x[step - 1, :active]
        _rounds(xs, ys, *cut)
    # Rows a lane finished above still hold IP(D_i) — in-range indices
    # for the bulk FP, which an uninitialised row would not be.
    return _fp(x.ravel(), y.ravel()).reshape(depth, lanes)
