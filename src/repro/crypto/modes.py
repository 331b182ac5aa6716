"""DES block modes: ECB, CBC, and the paper's Propagating CBC (PCBC).

Paper, Section 2.2: *"In CBC, an error is propagated only through the
current block of the cipher, whereas in PCBC, the error is propagated
throughout the message.  This renders the entire message useless if an
error occurs, rather than just a portion of it."*

On top of the raw modes this module provides the ``seal``/``unseal`` pair
used by every protocol message in the repository.  ``seal`` frames the
plaintext as::

    | magic u32 | length u32 | data ... | zero pad | 8-byte trailer |

and encrypts it (PCBC by default).  ``unseal`` decrypts and checks the
magic, the length, and the trailer.  With PCBC, corrupting *any*
ciphertext block garbles every later plaintext block — including the
trailer — so tampering anywhere in the message is detected.  With CBC the
trailer survives mid-message corruption, which is exactly the weakness
the paper's PCBC extension exists to close (benchmarked in exp C1).

Performance note: the mode kernels work in the 64-bit *int* domain
end-to-end.  A whole message is converted bytes→ints with one
``struct.unpack`` call, chained/encrypted as Python ints via
:func:`repro.crypto.des.crypt_int`, and converted back with one
``struct.pack`` — no per-block ``bytes`` slicing or int round trips.
The ``*_many`` batch entry points share one job runner, which starts a
run on the wide kernel (:mod:`repro.crypto.des_simd`) when it has
enough lanes and finishes everything else on ``crypt_int``.
The original byte-path loops are the oracle in
``tests/crypto/reference_des.py``, and the property suite in
``tests/crypto/test_perf_kernels.py`` pins the two bit-exact.
"""

from __future__ import annotations

import enum
import struct
import weakref
from typing import List, Optional, Sequence, Tuple, Union

from repro.crypto import des_simd
from repro.crypto.bits import bytes_to_int
from repro.crypto.des import BLOCK_SIZE, DesKey, crypt_int

_MASK64 = (1 << 64) - 1

#: Magic marking the start of a sealed message ("KRB4" in ASCII).
SEAL_MAGIC = 0x4B524234
#: Trailer block appended before encryption; survives decryption intact
#: only if no earlier block was corrupted (under PCBC).
SEAL_TRAILER = b"ATHENA88"

ZERO_IV = b"\x00" * BLOCK_SIZE


class IntegrityError(ValueError):
    """Decryption produced garbage: wrong key, corruption, or tampering."""


class Mode(enum.Enum):
    """Cipher mode selector for :func:`seal`/:func:`unseal`."""

    ECB = "ecb"
    CBC = "cbc"
    PCBC = "pcbc"


def _require_iv(iv: bytes) -> int:
    if len(iv) != BLOCK_SIZE:
        raise ValueError(f"IV must be {BLOCK_SIZE} bytes, got {len(iv)}")
    return bytes_to_int(iv)


def _unpack_blocks(data: bytes, what: str) -> tuple:
    """Whole-message bytes → tuple of big-endian u64 (one C call)."""
    n, rem = divmod(len(data), BLOCK_SIZE)
    if rem != 0:
        raise ValueError(
            f"{what} length {len(data)} is not a multiple of {BLOCK_SIZE}"
        )
    return struct.unpack(f">{n}Q", data)


def _pack_blocks(blocks: list) -> bytes:
    """Tuple/list of u64 → whole-message bytes (one C call)."""
    return struct.pack(f">{len(blocks)}Q", *blocks)


# --------------------------------------------------------------------------
# Raw modes. All operate on data whose length is a multiple of 8.
# --------------------------------------------------------------------------


def ecb_encrypt(key: DesKey, data: bytes) -> bytes:
    """Electronic codebook: each block independently encrypted."""
    blocks = _unpack_blocks(data, "plaintext")
    subkeys = key._enc_subkeys
    return _pack_blocks([crypt_int(b, subkeys) for b in blocks])


def ecb_decrypt(key: DesKey, data: bytes) -> bytes:
    blocks = _unpack_blocks(data, "ciphertext")
    subkeys = key._dec_subkeys
    return _pack_blocks([crypt_int(b, subkeys) for b in blocks])


def cbc_encrypt(key: DesKey, data: bytes, iv: bytes = ZERO_IV) -> bytes:
    """Cipher block chaining: C_i = E(P_i xor C_{i-1}), C_0 = IV."""
    prev = _require_iv(iv)
    blocks = _unpack_blocks(data, "plaintext")
    subkeys = key._enc_subkeys
    out = []
    append = out.append
    for block in blocks:
        prev = crypt_int(block ^ prev, subkeys)
        append(prev)
    return _pack_blocks(out)


def cbc_decrypt(key: DesKey, data: bytes, iv: bytes = ZERO_IV) -> bytes:
    prev = _require_iv(iv)
    blocks = _unpack_blocks(data, "ciphertext")
    subkeys = key._dec_subkeys
    out = []
    append = out.append
    for block in blocks:
        append(crypt_int(block, subkeys) ^ prev)
        prev = block
    return _pack_blocks(out)


def pcbc_encrypt(key: DesKey, data: bytes, iv: bytes = ZERO_IV) -> bytes:
    """Propagating CBC: C_i = E(P_i xor P_{i-1} xor C_{i-1}).

    The chaining value mixes both the previous plaintext and the previous
    ciphertext, so any ciphertext error cascades into every subsequent
    plaintext block on decryption — the paper's whole-message error
    propagation.
    """
    chain = _require_iv(iv)  # holds P_{i-1} xor C_{i-1}
    blocks = _unpack_blocks(data, "plaintext")
    subkeys = key._enc_subkeys
    out = []
    append = out.append
    for plain in blocks:
        cipher = crypt_int(plain ^ chain, subkeys)
        append(cipher)
        chain = plain ^ cipher
    return _pack_blocks(out)


def pcbc_decrypt(key: DesKey, data: bytes, iv: bytes = ZERO_IV) -> bytes:
    chain = _require_iv(iv)
    blocks = _unpack_blocks(data, "ciphertext")
    subkeys = key._dec_subkeys
    out = []
    append = out.append
    for cipher in blocks:
        plain = crypt_int(cipher, subkeys) ^ chain
        append(plain)
        chain = plain ^ cipher
    return _pack_blocks(out)


# --------------------------------------------------------------------------
# Sealed messages.
# --------------------------------------------------------------------------


def seal(
    key: DesKey,
    data: bytes,
    iv: bytes = ZERO_IV,
    mode: Mode = Mode.PCBC,
) -> bytes:
    """Frame and encrypt ``data`` so that :func:`unseal` can validate it.

    This is the primitive behind every "{...}K" in the paper's figures:
    tickets sealed in the server's key, KDC replies sealed in the client's
    key, authenticators sealed in the session key.
    """
    frame = _frame(data)
    if mode is Mode.PCBC:
        return pcbc_encrypt(key, frame, iv)
    if mode is Mode.CBC:
        return cbc_encrypt(key, frame, iv)
    return ecb_encrypt(key, frame)


def _seal_header(data_len: int) -> bytes:
    return SEAL_MAGIC.to_bytes(4, "big") + data_len.to_bytes(4, "big")


def _frame(data: bytes) -> bytes:
    """The seal framing: header, data, zero pad, trailer."""
    if not isinstance(data, (bytes, bytearray)):
        raise TypeError(f"data must be bytes, got {type(data).__name__}")
    body = _seal_header(len(data)) + bytes(data)
    pad_len = (-len(body)) % BLOCK_SIZE
    return body + b"\x00" * pad_len + SEAL_TRAILER


def unseal(
    key: DesKey,
    ciphertext: bytes,
    iv: bytes = ZERO_IV,
    mode: Mode = Mode.PCBC,
) -> bytes:
    """Decrypt a sealed message and return the original data.

    Raises :class:`IntegrityError` if the magic, length, or trailer do not
    check out — which is what happens when the wrong key is used (the
    paper's wrong-password case) or when the ciphertext was tampered with
    (detected whole-message under PCBC).
    """
    _check_sealed_length(ciphertext)
    if mode is Mode.PCBC:
        plain = pcbc_decrypt(key, ciphertext, iv)
    elif mode is Mode.CBC:
        plain = cbc_decrypt(key, ciphertext, iv)
    else:
        plain = ecb_decrypt(key, ciphertext)
    return _open_frame(plain)


def _check_sealed_length(ciphertext: bytes) -> None:
    """A sealed message is whole blocks: at least a header and a trailer."""
    if len(ciphertext) % BLOCK_SIZE != 0 or len(ciphertext) < 2 * BLOCK_SIZE:
        raise IntegrityError(
            f"sealed message has invalid length {len(ciphertext)}"
        )


def _open_frame(plain: bytes) -> bytes:
    """Check a decrypted seal frame and return the data it carries."""
    if int.from_bytes(plain[:4], "big") != SEAL_MAGIC:
        raise IntegrityError("bad magic: wrong key or corrupted message")
    length = int.from_bytes(plain[4:8], "big")
    if 8 + length + BLOCK_SIZE > len(plain):
        raise IntegrityError("declared length exceeds message size")
    if plain[-BLOCK_SIZE:] != SEAL_TRAILER:
        raise IntegrityError("bad trailer: message corrupted in transit")
    if any(plain[8 + length : -BLOCK_SIZE]):
        raise IntegrityError("nonzero padding: message corrupted in transit")
    return plain[8 : 8 + length]


# --------------------------------------------------------------------------
# Multi-message PCBC: the KDC pipeline's cipher entry points.
#
# PCBC chains are sequential *within* one message, but independent
# messages place no ordering constraint on each other — so a batch of
# sealed tickets, reply bodies, TGTs or authenticators advances one
# block of *every* message per pass of the Feistel network.  One job
# runner serves both directions; a job (:func:`_job`) is a mutable record
#
#     [subkeys, chain, blocks, out, decrypt]
#
# where each step reads ``blk = blocks[len(out)]`` and computes
#
#     encrypt:  out = E(blk ^ chain)        decrypt:  out = D(blk) ^ chain
#     both:     chain = blk ^ out           (the PCBC value P_i ^ C_i)
#
# On the wide kernel the direction is a pair of 64-bit lane masks (chain
# mixed in before or after the cipher), so one run may mix sealing and
# unsealing lanes; the single-lane kernel branches once per job, outside
# its block loop.  A job is resumable from ``len(out)``: the wide kernel
# hands whatever it leaves unfinished straight to the single-lane one.
# Outputs are bit-identical to running :func:`pcbc_encrypt` /
# :func:`pcbc_decrypt` per message, which the property suite and the
# request-plane benchmark's A/B legs both assert.
# --------------------------------------------------------------------------

#: Process-wide count of blocks pushed through the wide-lane kernel.
_interleaved_blocks = 0

#: Live metric sinks mirroring ``crypto.interleaved_blocks_total``.
_sinks: List[Tuple[weakref.ref, object]] = []


def interleaved_blocks() -> int:
    """Blocks processed on the wide kernel's lanes since process start
    (blocks finished by the single-lane kernel are not counted)."""
    return _interleaved_blocks


def attach_metrics(metrics, labels: Optional[dict] = None) -> None:
    """Mirror future wide-lane block counts into ``metrics`` as
    ``crypto.interleaved_blocks_total``.  Same contract as
    :func:`repro.crypto.keycache.attach_metrics`: attaching one registry
    twice is a no-op, dead registries are pruned on the next attach."""
    _sinks[:] = [s for s in _sinks if s[0]() is not None]
    for ref, _ in _sinks:
        if ref() is metrics:
            return
    counter = metrics.counter(
        "crypto.interleaved_blocks_total", dict(labels or {})
    )
    _sinks.append((weakref.ref(metrics), counter))


def _count_interleaved(blocks: int) -> None:
    global _interleaved_blocks
    _interleaved_blocks += blocks
    for ref, counter in _sinks:
        if ref() is not None:
            counter.inc(blocks)


def _job(subkeys, chain: int, blocks, decrypt: bool = False) -> list:
    """A runner job: ``[subkeys, chain, blocks, out, decrypt]``."""
    return [subkeys, chain, blocks, [], decrypt]


def _pcbc_run_single(job) -> None:
    """Finish one job on the single-lane kernel."""
    sk, chain, blocks, out, decrypt = job
    crypt1 = crypt_int
    push = out.append
    if decrypt:
        for blk in blocks[len(out):]:
            y = crypt1(blk, sk) ^ chain
            push(y)
            chain = blk ^ y
    else:
        for blk in blocks[len(out):]:
            y = crypt1(blk ^ chain, sk)
            push(y)
            chain = blk ^ y
    job[1] = chain


#: Fewest lanes a run needs before it starts on the wide kernel.  A wide
#: pass is ~60 numpy dispatches however many lanes ride it (45-90 us from
#: 8 to 128 lanes, plus ~0.4 us a lane to marshal the step) against
#: ~6.5 us per single-lane block, so a run breaks even near 8 lanes.  Not
#: retuned with the kernels: which batches ride the lanes is what
#: ``interleaved_blocks`` counts, and the ledger pins that count.
WIDE_MIN_LANES = 32


def _pcbc_run_wide(jobs) -> None:
    """Advance every job one block per Feistel pass (numpy lanes).

    Jobs are sorted longest-first so the active set stays a contiguous
    prefix as short messages finish; once fewer than
    ``WIDE_MIN_LANES`` remain, the tails finish on the single-lane
    kernel.
    """
    np = des_simd._np
    lanes = sorted(jobs, key=lambda job: -len(job[2]))
    km = des_simd.keymat([job[0] for job in lanes])
    chains = np.array([job[1] for job in lanes], dtype=np.uint64)
    # Which side of the cipher each lane's chain is mixed in: before it
    # when sealing, after it when unsealing.
    pre = np.array(
        [0 if job[4] else _MASK64 for job in lanes], dtype=np.uint64
    )
    post = ~pre
    lens = [len(job[2]) for job in lanes]
    active = len(lanes)
    step = 0
    while step < lens[0]:
        while active and lens[active - 1] <= step:
            active -= 1
        if active < WIDE_MIN_LANES:
            break
        blk = np.array(
            [lanes[i][2][step] for i in range(active)], dtype=np.uint64
        )
        chain = chains[:active]
        y = des_simd.crypt_wide(
            blk ^ (chain & pre[:active]), km[:, :active]
        ) ^ (chain & post[:active])
        chains[:active] = blk ^ y
        for i, value in enumerate(y.tolist()):
            lanes[i][3].append(value)
        _count_interleaved(active)
        step += 1
    for job, chain in zip(lanes, chains.tolist()):
        job[1] = chain
    for job in lanes[:active]:
        _pcbc_run_single(job)


def _pcbc_run_jobs(jobs) -> None:
    """The one PCBC job runner: wide if numpy is present and the run
    has at least ``WIDE_MIN_LANES`` jobs, else single-lane per job."""
    if des_simd.available() and len(jobs) >= WIDE_MIN_LANES:
        _pcbc_run_wide(jobs)
    else:
        for job in jobs:
            _pcbc_run_single(job)


def _pcbc_many(
    items: Sequence[Tuple[DesKey, bytes]], iv: bytes, decrypt: bool
) -> List[bytes]:
    chain0 = _require_iv(iv)
    what = "ciphertext" if decrypt else "plaintext"
    jobs = [
        _job(
            key._dec_subkeys if decrypt else key._enc_subkeys,
            chain0,
            _unpack_blocks(data, what),
            decrypt,
        )
        for key, data in items
    ]
    _pcbc_run_jobs(jobs)
    return [_pack_blocks(job[3]) for job in jobs]


def pcbc_encrypt_many(
    items: Sequence[Tuple[DesKey, bytes]], iv: bytes = ZERO_IV
) -> List[bytes]:
    """PCBC-encrypt many independent messages, one block of each per
    Feistel pass.

    Bit-identical to ``[pcbc_encrypt(key, data, iv) for key, data in
    items]``.
    """
    return _pcbc_many(items, iv, decrypt=False)


def pcbc_decrypt_many(
    items: Sequence[Tuple[DesKey, bytes]], iv: bytes = ZERO_IV
) -> List[bytes]:
    """PCBC-decrypt many independent messages, one block of each per
    Feistel pass.

    Bit-identical to ``[pcbc_decrypt(key, data, iv) for key, data in
    items]``.
    """
    return _pcbc_many(items, iv, decrypt=True)


def seal_many(items: Sequence[Tuple[DesKey, bytes]]) -> List[bytes]:
    """Frame and PCBC-encrypt many independent messages, one block of
    each per Feistel pass.

    The batch analogue of :func:`seal`, used by the KDC's seal-all stage
    for reply bodies.  Bit-identical to calling :func:`seal` per item.
    """
    return pcbc_encrypt_many(
        [(key, _frame(data)) for key, data in items]
    )


def unseal_many(
    items: Sequence[Tuple[DesKey, bytes]]
) -> List[Union[bytes, IntegrityError]]:
    """Decrypt and validate many sealed messages, one block of each per
    Feistel pass.

    Returns, position-for-position, either the recovered plaintext or
    the :class:`IntegrityError` that message failed with — one bad item
    (wrong key, truncation, tampering) never poisons its batchmates.
    """
    results: List[Union[bytes, IntegrityError, None]] = [None] * len(items)
    good = []
    for i, (_key, ciphertext) in enumerate(items):
        try:
            _check_sealed_length(ciphertext)
            good.append(i)
        except IntegrityError as exc:
            # Kept as a value: without its traceback it holds no frame
            # (and so no reference cycle through ``results``).
            results[i] = exc.with_traceback(None)
    plains = pcbc_decrypt_many([items[i] for i in good])
    for i, plain in zip(good, plains):
        try:
            results[i] = _open_frame(plain)
        except IntegrityError as exc:
            results[i] = exc.with_traceback(None)
    return results


# --------------------------------------------------------------------------
# Split sealing: precomputable prefixes for sealed-ticket skeletons.
#
# Under PCBC the ciphertext of a prefix depends only on the key and that
# prefix's plaintext — so a message whose leading bytes repeat across
# requests (a hot ticket's server/client/address fields) can resume from
# a cached ``(cipher_prefix, chain)`` state and re-encrypt only the
# per-request suffix.  The state after *no* blocks, :data:`SEAL_START`,
# makes a whole seal the degenerate resume, so cached and uncached
# messages ride one batch run; and because the chaining value is just
# ``P_k ^ C_k``, the state at any cut of a finished seal is read off its
# bytes (:func:`sealed_prefix_state`) instead of being sealed twice.
# --------------------------------------------------------------------------

#: The resumable state before any block is sealed: resuming from it
#: seals the whole frame, header included.
SEAL_START: Tuple[bytes, int] = (b"", 0)


def sealed_prefix_state(
    data: bytes, sealed: bytes, prefix_len: int
) -> Tuple[bytes, int]:
    """The resumable state ``(cipher_prefix, chain)`` after the frame
    header plus ``data[:prefix_len]`` (a whole number of blocks), read
    off a finished ``sealed = seal(key, data)``: the cipher prefix is a
    slice, and the chaining value after block *k* is ``P_k ^ C_k``."""
    end = BLOCK_SIZE + prefix_len
    plain_prefix = _seal_header(len(data)) + data[:prefix_len]
    chain = bytes_to_int(plain_prefix[-BLOCK_SIZE:]) ^ bytes_to_int(
        sealed[end - BLOCK_SIZE : end]
    )
    return sealed[:end], chain


def seal_suffix_body(cipher_prefix_len: int, suffix: bytes) -> bytes:
    """The remaining frame bytes after a cached prefix: suffix data, zero
    pad, trailer.  ``cipher_prefix_len`` is the length of the cached
    cipher prefix (header block included); 0 — :data:`SEAL_START` —
    means the header is still to come and ``suffix`` is the whole data."""
    if cipher_prefix_len == 0:
        return _frame(suffix)
    data_len = cipher_prefix_len - 8 + len(suffix)
    pad_len = (-(8 + data_len)) % BLOCK_SIZE
    return bytes(suffix) + b"\x00" * pad_len + SEAL_TRAILER


def seal_resume_many(
    items: Sequence[Tuple[DesKey, Tuple[bytes, int], bytes]]
) -> List[bytes]:
    """Finish many split seals, one block of each per Feistel pass.

    Each item is ``(key, state, suffix)`` with ``state`` from
    :func:`sealed_prefix_state` or :data:`SEAL_START`.  Bit-identical
    to ``seal(key, prefix + suffix)`` per item; the KDC's seal-all stage
    uses this so skeleton-cached tickets and whole ones ride the same
    run.
    """
    jobs = [
        _job(
            key._enc_subkeys,
            state[1],
            _unpack_blocks(
                seal_suffix_body(len(state[0]), suffix), "suffix"
            ),
        )
        for key, state, suffix in items
    ]
    _pcbc_run_jobs(jobs)
    return [
        state[0] + _pack_blocks(job[3])
        for (_key, state, _suffix), job in zip(items, jobs)
    ]
