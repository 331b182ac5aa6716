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

Performance note: the single-message mode loops work in the 64-bit
*int* domain end-to-end.  A whole message is converted bytes→ints with
one ``struct.unpack`` call, chained/encrypted as Python ints via
:func:`repro.crypto.des.crypt_int`, and converted back with one
``struct.pack`` — no per-block ``bytes`` slicing or int round trips.
The ``*_many`` batch entry points keep a batch in numpy arrays from the
message bytes in to the message bytes out, on the wide kernel
(:mod:`repro.crypto.des_simd`) — the shapes and their thresholds are
described under "Multi-message PCBC" below; a long enough ECB run (the
session-key generator's counter runs) is one pass of it too.
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


def _block_count(data: bytes, what: str) -> int:
    """How many blocks ``data`` is; it must be whole blocks."""
    n, rem = divmod(len(data), BLOCK_SIZE)
    if rem != 0:
        raise ValueError(
            f"{what} length {len(data)} is not a multiple of {BLOCK_SIZE}"
        )
    return n


def _unpack_blocks(data: bytes, what: str) -> tuple:
    """Whole-message bytes → tuple of big-endian u64 (one C call)."""
    return struct.unpack(f">{_block_count(data, what)}Q", data)


def _pack_blocks(blocks: list) -> bytes:
    """Tuple/list of u64 → whole-message bytes (one C call)."""
    return struct.pack(f">{len(blocks)}Q", *blocks)


# --------------------------------------------------------------------------
# Raw modes. All operate on data whose length is a multiple of 8.
# --------------------------------------------------------------------------


def _ecb(key: DesKey, decrypt: bool, data: bytes, what: str) -> bytes:
    """Every block on its own under one schedule: the third batch shape.
    No block waits for another, so a block is a lane and a run of
    ``WIDE_MIN_BLOCKS`` is one pass of the wide kernel under a one-column
    key matrix (the DRBG's counter runs, see ``repro.crypto.keygen``)."""
    n = _block_count(data, what)
    if n >= WIDE_MIN_BLOCKS and des_simd.available():
        blocks = des_simd._np.frombuffer(data, dtype=_WIRE).astype(_NATIVE)
        _count_interleaved(n)
        out = des_simd.crypt_wide(blocks, des_simd.keymat_of([key], decrypt))
        return out.astype(_WIRE).tobytes()
    subkeys = key._dec_subkeys if decrypt else key._enc_subkeys
    blocks = _unpack_blocks(data, what)
    return _pack_blocks([crypt_int(b, subkeys) for b in blocks])


def ecb_encrypt(key: DesKey, data: bytes) -> bytes:
    """Electronic codebook: each block independently encrypted."""
    return _ecb(key, False, data, "plaintext")


def ecb_decrypt(key: DesKey, data: bytes) -> bytes:
    return _ecb(key, True, data, "ciphertext")


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


def sealed_length(data_len: int) -> int:
    """``len(seal(key, data))`` for ``data_len`` bytes of data."""
    return 2 * BLOCK_SIZE + data_len + (-data_len) % BLOCK_SIZE


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
# A batch of sealed tickets, reply bodies, TGTs or authenticators lives
# in numpy arrays from the message bytes in to the message bytes out,
# and a *lane* is one block operation that waits for no other.  The
# chain gives the two directions different shapes:
#
# Sealing is sequential within a message — C_i = E(P_i ^ chain_i) with
# chain_i = P_{i-1} ^ C_{i-1} — so a message is one lane and a run takes
# sixteen rounds per block *step*: the joined plaintext is gathered once
# into a ``(depth, lanes)`` matrix, longest message first so the lanes
# still running are a prefix, and handed whole to the run kernel, which
# keeps the chain in the cipher's own domain from first step to last.
# One :func:`_pcbc_encrypt_run` is behind every sealing entry: the
# plain seal, the resumed one, and the nested one the KDC calls.
#
# Unsealing has no sequential cipher in it at all.  In
# P_i = D(C_i) ^ P_{i-1} ^ C_{i-1} every D(C_i) is known from the start,
# and unrolling the recurrence gives
#
#     P_i = D(C_i) ^ IV ^ S_0 ^ ... ^ S_{i-1},     S_j = D(C_j) ^ C_j
#
# — the chain is a running xor.  So every block of every message is a
# lane, the whole batch is one pass over the flat ciphertext, and the
# plaintext is one ``bitwise_xor.accumulate`` minus, per message, the
# running value where that message starts.
#
# Each shape has its own threshold (:data:`WIDE_MIN_MESSAGES`,
# :data:`WIDE_MIN_BLOCKS`); below it (and without numpy) each message
# goes through :func:`pcbc_encrypt` / :func:`pcbc_decrypt`, which is
# also where the tails of a ragged sealing run finish.  Outputs are
# bit-identical to the per-message calls, which the property suite and
# the request-plane benchmark's A/B legs both assert.
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


#: Fewest *blocks* a one-pass shape (a batch unsealed, an ECB run) needs
#: to be one ``crypt_wide`` call: ~60 numpy dispatches, 45-90 us from 8
#: to 128 lanes, against ~6.5 us per single-lane block.  Kept where
#: PR 18 measured ``login_session`` at parity: lowering it moves counts.
WIDE_MIN_BLOCKS = 32

#: Fewest *messages* alive at a step for a sealing run to take it on the
#: run kernel, the measured break-even: a step is 30-34 us from 5 to 13
#: lanes against ~6 us per single-lane block (5 messages x 46 steps read
#: 1,380 us single-lane and 1,384 on the kernel, 8 read 2,313 and 1,544;
#: a short run pays its set-up too: 6 x 11 read 622 and 666, 8 x 11 867
#: and 690).
WIDE_MIN_MESSAGES = 6

_NATIVE = des_simd._U64  # the wide kernel's lane dtype
_WIRE = ">u8"            # a block as it sits in a message


def _pcbc_encrypt_run(
    jobs: Sequence[Tuple[DesKey, int, bytes]]
) -> List[bytes]:
    """PCBC-encrypt each ``(key, chain, plaintext)`` from its chaining
    value: the one sealing run, behind :func:`pcbc_encrypt_many`,
    :func:`seal_resume_many` and :func:`seal_nested_many`."""
    lens = [_block_count(data, "plaintext") for _k, _c, data in jobs]
    # Steps on which at least WIDE_MIN_MESSAGES lanes run (the length of
    # the WIDE_MIN_MESSAGES-th longest); what is longer ends single-lane.
    depth = sorted([0] * WIDE_MIN_MESSAGES + lens)[-WIDE_MIN_MESSAGES]
    if not des_simd.available() or depth == 0:
        return [
            pcbc_encrypt(key, data, chain.to_bytes(BLOCK_SIZE, "big"))
            for key, chain, data in jobs
        ]
    np = des_simd._np
    lens = np.array(lens)
    # Longest first: the lanes still running at any step are a prefix.
    order = np.argsort(-lens, kind="stable")
    steps = np.arange(depth)[:, None]
    running = (lens > steps).sum(axis=1).tolist()
    flat = np.frombuffer(
        b"".join(data for _k, _c, data in jobs), dtype=_WIRE
    ).astype(_NATIVE)
    plain = flat.take((np.cumsum(lens) - lens)[order] + steps, mode="clip")
    lanes = [jobs[i] for i in order]
    km = des_simd.keymat_of([key for key, _c, _d in lanes])
    chains = np.array([chain for _k, chain, _d in lanes], dtype=_NATIVE)
    out = des_simd.pcbc_encrypt_wide(plain, chains, km, running)
    _count_interleaved(sum(running))
    # One row of ``raw`` per lane; a lane longer than the run resumes
    # single-lane from P_k ^ C_k at the run's last step.
    raw = out.T.astype(_WIRE).tobytes()
    ivs = (plain[-1] ^ out[-1]).astype(_WIRE).tobytes()
    row = BLOCK_SIZE * depth
    results: List[bytes] = [b""] * len(jobs)
    for lane, i in enumerate(order.tolist()):
        key, _chain, data = lanes[lane]
        sealed = raw[lane * row : lane * row + min(row, len(data))]
        if len(data) > row:
            iv = ivs[BLOCK_SIZE * lane : BLOCK_SIZE * (lane + 1)]
            sealed += pcbc_encrypt(key, data[row:], iv)
        results[i] = sealed
    return results


def pcbc_encrypt_many(
    items: Sequence[Tuple[DesKey, bytes]], iv: bytes = ZERO_IV
) -> List[bytes]:
    """PCBC-encrypt many independent messages, one block of each per
    step of the run kernel.

    Bit-identical to ``[pcbc_encrypt(key, data, iv) for key, data in
    items]``.
    """
    chain = _require_iv(iv)
    return _pcbc_encrypt_run([(key, chain, data) for key, data in items])


def pcbc_decrypt_many(
    items: Sequence[Tuple[DesKey, bytes]], iv: bytes = ZERO_IV
) -> List[bytes]:
    """PCBC-decrypt many independent messages, every block of every
    message in one pass of the wide kernel.

    Bit-identical to ``[pcbc_decrypt(key, data, iv) for key, data in
    items]``.
    """
    chain0 = _require_iv(iv)
    counts = [_block_count(data, "ciphertext") for _key, data in items]
    total = sum(counts)
    if not des_simd.available() or total < WIDE_MIN_BLOCKS:
        return [pcbc_decrypt(key, data, iv) for key, data in items]
    np = des_simd._np
    cipher = np.frombuffer(
        b"".join(data for _key, data in items), dtype=_WIRE
    ).astype(_NATIVE)
    first = items[0][0]
    if all(key is first for key, _data in items):
        # One key (the master key over a batch's database blobs, the TGS
        # key over its TGTs): one column, broadcast across the lanes.
        km = des_simd.keymat_of([first], decrypt=True)
    else:
        km = des_simd.keymat_of([key for key, _data in items], decrypt=True)
        km = np.repeat(km, counts, axis=1)
    decrypted = des_simd.crypt_wide(cipher, km)
    _count_interleaved(total)
    # running[i] = S_0 ^ ... ^ S_{i-1} over the flat buffer; a message's
    # own chain is that minus (xor) its value at the message's start.
    running = np.zeros(total + 1, dtype=_NATIVE)
    np.bitwise_xor.accumulate(decrypted ^ cipher, out=running[1:])
    starts = np.cumsum(counts) - counts
    base = running[starts] ^ np.uint64(chain0)
    plain = decrypted ^ running[:-1] ^ np.repeat(base, counts)
    raw = plain.astype(_WIRE).tobytes()
    out = []
    pos = 0
    for _key, data in items:
        out.append(raw[pos : pos + len(data)])
        pos += len(data)
    return out


def seal_many(items: Sequence[Tuple[DesKey, bytes]]) -> List[bytes]:
    """Frame and PCBC-encrypt many independent messages, one block of
    each per step of the run kernel.

    The batch analogue of :func:`seal`, bit-identical to calling it per
    item.  (The KDC seals a reply *around* its ticket:
    :func:`seal_nested_many`.)
    """
    return pcbc_encrypt_many(
        [(key, _frame(data)) for key, data in items]
    )


def unseal_many(
    items: Sequence[Tuple[DesKey, bytes]]
) -> List[Union[bytes, IntegrityError]]:
    """Decrypt and validate many sealed messages, all their blocks in
    one pass of the wide kernel.

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
    """Finish many split seals, one block of each per step of the run
    kernel.

    Each item is ``(key, state, suffix)`` with ``state`` from
    :func:`sealed_prefix_state` or :data:`SEAL_START`.  Bit-identical
    to ``seal(key, prefix + suffix)`` per item, so skeleton-cached
    messages and whole ones ride the same run.
    """
    sealed = _pcbc_encrypt_run([
        (key, state[1], seal_suffix_body(len(state[0]), suffix))
        for key, state, suffix in items
    ])
    return [item[1][0] + rest for item, rest in zip(items, sealed)]


def seal_nested_many(
    items: Sequence[Tuple[DesKey, Tuple[bytes, int], bytes, DesKey, bytes]]
) -> Tuple[List[bytes], List[bytes]]:
    """Seal many nests — Figure 5's ``{K_c,tgs, {T_c,tgs}K_tgs}K_c`` —
    in two runs.  An item is ``(inner key, inner state, inner suffix,
    outer key, outer head)``: the inner message is finished from
    ``state`` as in :func:`seal_resume_many`, the outer one is
    ``seal(outer key, head + inner sealed)``.  Returns ``(inner sealed,
    outer sealed)``, position for position, bit-identical to the two
    seals made one after the other.

    The inner sealed *length* is known before any cipher runs, so the
    outer header is written up front and the whole blocks of the outer
    message ahead of the inner one ride run 1 beside the inner messages
    (twice the lanes); run 2 resumes the outer messages, each from the
    state read off its run-1 prefix, over the rest.
    """
    jobs, leads = [], []
    for inner_key, state, suffix, outer_key, head in items:
        rest = seal_suffix_body(len(state[0]), suffix)
        jobs.append((inner_key, state[1], rest))
        header = _seal_header(len(head) + len(state[0]) + len(rest))
        cut = len(head) - len(head) % BLOCK_SIZE
        leads.append((outer_key, 0, header + head[:cut]))
    sealed = _pcbc_encrypt_run(jobs + leads)
    inner = [item[1][0] + rest for item, rest in zip(items, sealed)]
    resumed = []
    for item, lead, blob in zip(items, sealed[len(items):], inner):
        data, cut = item[4] + blob, len(lead) - BLOCK_SIZE
        state = sealed_prefix_state(data, lead, cut)
        resumed.append((item[3], state, data[cut:]))
    return inner, seal_resume_many(resumed)
