"""Batch framing: many datagrams in one contiguous buffer.

The KDC's request plane works on whole WorkQueue batches (PR 4), but the
codec used to hand it one ``bytes`` object per datagram — a copy and an
allocation per message before a single field was parsed.  This module
makes the *buffer* the unit of I/O:

* :class:`BatchReader` slices length-prefixed frames out of one
  contiguous buffer as ``memoryview``\\ s — zero copies per message
  (:class:`~repro.encode.buffer.Decoder` reads views in place);
* :class:`BatchWriter` encodes every reply onto the end of one output
  buffer and returns per-reply views of it.

Frame format (everything big-endian, like the rest of the codec)::

    | u32 payload length | payload bytes | u32 length | payload | ...

A truncated final frame — a length prefix cut short, or a payload
shorter than its prefix promised — raises :class:`DecodeError` naming
the frame index, so a damaged tail is a typed per-batch error rather
than a garbage message handed to the KDC.
"""

from __future__ import annotations

from typing import List

from repro.encode.buffer import (
    _U32,
    DecodeError,
    Encoder,
    MAX_FIELD_LENGTH,
)
from repro.encode.structfmt import WireStruct

#: Bytes of framing per payload (the u32 length prefix).
FRAME_HEADER = 4


def pack_frames(payloads) -> bytes:
    """Concatenate payloads into one :class:`BatchReader`-readable buffer."""
    parts = []
    for payload in payloads:
        parts.append(len(payload).to_bytes(FRAME_HEADER, "big"))
        parts.append(payload)  # join() reads views/bytearrays in place
    return b"".join(parts)


class BatchReader:
    """Zero-copy iterator over length-prefixed frames in one buffer.

    Yields one ``memoryview`` per frame; nothing is copied until a
    decoder materializes individual fields.  Iteration is strict: a
    buffer whose final frame is truncated raises :class:`DecodeError`
    (after yielding every complete frame before it).
    """

    def __init__(self, buffer) -> None:
        if not isinstance(buffer, (bytes, bytearray, memoryview)):
            raise DecodeError(
                f"expected a buffer, got {type(buffer).__name__}"
            )
        self._view = memoryview(buffer)

    def __iter__(self):
        view = self._view
        total = len(view)
        pos = 0
        index = 0
        while pos < total:
            if pos + FRAME_HEADER > total:
                raise DecodeError(
                    f"truncated frame {index}: {total - pos} bytes left "
                    f"of a {FRAME_HEADER}-byte length prefix"
                )
            length = _U32.unpack_from(view, pos)[0]
            if length > MAX_FIELD_LENGTH:
                raise DecodeError(
                    f"frame {index} length {length} exceeds maximum"
                )
            pos += FRAME_HEADER
            if pos + length > total:
                raise DecodeError(
                    f"truncated frame {index}: prefix promises {length} "
                    f"bytes, {total - pos} remain"
                )
            yield view[pos : pos + length]
            pos += length
            index += 1

    def frames(self) -> List[memoryview]:
        """All frames as a list (same strictness as iteration)."""
        return list(self)


class BatchWriter:
    """Encode many typed replies into one buffer, in one pass.

    :meth:`add` encodes a ``(message type, WireStruct)`` reply straight
    onto the end of one growing buffer; :meth:`finish` slices it into
    per-reply views.  Each view's bytes equal
    :func:`repro.core.messages.encode_message` for that reply.
    """

    def __init__(self) -> None:
        self._enc = Encoder()
        self._ends: List[int] = []

    def add(self, mtype: int, msg: WireStruct) -> None:
        self._enc.u8(int(mtype))
        msg.encode_into(self._enc)
        self._ends.append(len(self._enc))

    def __len__(self) -> int:
        return len(self._ends)

    def finish(self) -> List[memoryview]:
        """One read-only payload view per reply added, in order (the u8
        message type byte included, framing excluded)."""
        view = memoryview(self._enc.getvalue())
        out: List[memoryview] = []
        start = 0
        for end in self._ends:
            out.append(view[start:end])
            start = end
        return out
