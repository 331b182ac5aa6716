"""Low-level binary encoder/decoder primitives.

All multi-byte integers are big-endian ("network byte order").  Variable
length payloads are length-prefixed.  The codec is intentionally free of
any Kerberos knowledge; higher layers (``repro.core.messages``,
``repro.database``) define the field order of each message.
"""

from __future__ import annotations

import io
import struct as _struct


class EncodeError(ValueError):
    """Raised when a value cannot be represented on the wire."""


class DecodeError(ValueError):
    """Raised when bytes on the wire do not parse as the expected shape."""


_U8 = _struct.Struct(">B")
_U16 = _struct.Struct(">H")
_U32 = _struct.Struct(">I")
_U64 = _struct.Struct(">Q")
_I32 = _struct.Struct(">i")
_I64 = _struct.Struct(">q")
_F64 = _struct.Struct(">d")

# Sanity bound on length prefixes.  Nothing in this system legitimately
# serializes a single field larger than 64 MiB; a bigger prefix is either
# corruption or an attack, and refusing it early keeps the decoder from
# attempting enormous allocations.
MAX_FIELD_LENGTH = 64 * 1024 * 1024


class Encoder:
    """Accumulates primitive values into a byte string.

    Example::

        enc = Encoder()
        enc.u8(4)
        enc.string("rlogin.priam@ATHENA.MIT.EDU")
        wire = enc.getvalue()
    """

    def __init__(self) -> None:
        self._buf = io.BytesIO()

    # -- integers ---------------------------------------------------------

    def u8(self, value: int) -> "Encoder":
        self._pack(_U8, value, 0, 0xFF)
        return self

    def u16(self, value: int) -> "Encoder":
        self._pack(_U16, value, 0, 0xFFFF)
        return self

    def u32(self, value: int) -> "Encoder":
        self._pack(_U32, value, 0, 0xFFFFFFFF)
        return self

    def u64(self, value: int) -> "Encoder":
        self._pack(_U64, value, 0, 0xFFFFFFFFFFFFFFFF)
        return self

    def i32(self, value: int) -> "Encoder":
        self._pack(_I32, value, -(2**31), 2**31 - 1)
        return self

    def i64(self, value: int) -> "Encoder":
        self._pack(_I64, value, -(2**63), 2**63 - 1)
        return self

    def f64(self, value: float) -> "Encoder":
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise EncodeError(f"expected float, got {type(value).__name__}")
        self._buf.write(_F64.pack(float(value)))
        return self

    def boolean(self, value: bool) -> "Encoder":
        if not isinstance(value, bool):
            raise EncodeError(f"expected bool, got {type(value).__name__}")
        return self.u8(1 if value else 0)

    # -- byte strings -----------------------------------------------------

    def raw(self, data: bytes) -> "Encoder":
        """Append bytes with no length prefix (caller manages framing)."""
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise EncodeError(f"expected bytes, got {type(data).__name__}")
        self._buf.write(bytes(data))
        return self

    def bytes_(self, data: bytes) -> "Encoder":
        """Append a 32-bit length prefix followed by the bytes."""
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise EncodeError(f"expected bytes, got {type(data).__name__}")
        data = bytes(data)
        if len(data) > MAX_FIELD_LENGTH:
            raise EncodeError(f"field of {len(data)} bytes exceeds maximum")
        self.u32(len(data))
        self._buf.write(data)
        return self

    def string(self, text: str) -> "Encoder":
        """Append a UTF-8 string with a 32-bit length prefix."""
        if not isinstance(text, str):
            raise EncodeError(f"expected str, got {type(text).__name__}")
        return self.bytes_(text.encode("utf-8"))

    # -- composites -------------------------------------------------------

    def list_of(self, items, write_item) -> "Encoder":
        """Append a u32 count, then each item via ``write_item(enc, item)``."""
        items = list(items)
        self.u32(len(items))
        for item in items:
            write_item(self, item)
        return self

    def getvalue(self) -> bytes:
        return self._buf.getvalue()

    def __len__(self) -> int:
        return self._buf.tell()  # write-only, never seeks: the size

    # -- internals --------------------------------------------------------

    def _pack(self, fmt: _struct.Struct, value: int, lo: int, hi: int) -> None:
        if not isinstance(value, int) or isinstance(value, bool):
            raise EncodeError(f"expected int, got {type(value).__name__}")
        if not lo <= value <= hi:
            raise EncodeError(f"value {value} out of range [{lo}, {hi}]")
        self._buf.write(fmt.pack(value))


class Decoder:
    """Strict reader over a byte string produced by :class:`Encoder`.

    Accepts ``bytes`` or a ``memoryview`` — a view is read in place
    (scalars via ``unpack_from``, byte fields materialized individually),
    so the batch plane can slice many datagrams out of one contiguous
    buffer without a per-message copy.
    """

    def __init__(self, data: bytes) -> None:
        if isinstance(data, memoryview):
            self._data = data
        elif isinstance(data, (bytes, bytearray)):
            self._data = bytes(data)
        else:
            raise DecodeError(f"expected bytes, got {type(data).__name__}")
        self._pos = 0

    # -- integers ---------------------------------------------------------

    def u8(self) -> int:
        return self._unpack(_U8)

    def u16(self) -> int:
        return self._unpack(_U16)

    def u32(self) -> int:
        return self._unpack(_U32)

    def u64(self) -> int:
        return self._unpack(_U64)

    def i32(self) -> int:
        return self._unpack(_I32)

    def i64(self) -> int:
        return self._unpack(_I64)

    def f64(self) -> float:
        return self._unpack(_F64)

    def boolean(self) -> bool:
        value = self.u8()
        if value not in (0, 1):
            raise DecodeError(f"invalid boolean byte {value!r}")
        return bool(value)

    # -- byte strings -----------------------------------------------------

    def raw(self, n: int) -> bytes:
        """Read exactly ``n`` bytes with no length prefix."""
        if n < 0:
            raise DecodeError(f"negative read length {n}")
        return self._take(n)

    def bytes_(self) -> bytes:
        length = self.u32()
        if length > MAX_FIELD_LENGTH:
            raise DecodeError(f"length prefix {length} exceeds maximum")
        return self._take(length)

    def string(self) -> str:
        data = self.bytes_()
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DecodeError(f"invalid UTF-8 string: {exc}") from exc

    # -- composites -------------------------------------------------------

    def list_of(self, read_item) -> list:
        """Read a u32 count, then each item via ``read_item(dec)``."""
        count = self.u32()
        # A count can't exceed remaining bytes (every item is >= 1 byte on
        # the wire); reject absurd counts before looping.
        if count > self.remaining():
            raise DecodeError(f"list count {count} exceeds remaining bytes")
        return [read_item(self) for _ in range(count)]

    # -- cursor -----------------------------------------------------------

    def remaining(self) -> int:
        return len(self._data) - self._pos

    def eof(self) -> bool:
        return self._pos >= len(self._data)

    def expect_eof(self) -> None:
        """Raise unless every byte has been consumed (no trailing garbage)."""
        if not self.eof():
            raise DecodeError(f"{self.remaining()} trailing bytes after message")

    def rest(self) -> bytes:
        """Consume and return all remaining bytes."""
        return self._take(self.remaining())

    # -- internals --------------------------------------------------------

    def _take(self, n: int) -> bytes:
        pos = self._pos
        if pos + n > len(self._data):
            raise DecodeError(
                f"short read: wanted {n} bytes, {self.remaining()} remain"
            )
        out = self._data[pos : pos + n]
        self._pos = pos + n
        return out if type(out) is bytes else bytes(out)

    def _unpack(self, fmt: _struct.Struct):
        pos = self._pos
        if pos + fmt.size > len(self._data):
            raise DecodeError(
                f"short read: wanted {fmt.size} bytes, "
                f"{self.remaining()} remain"
            )
        self._pos = pos + fmt.size
        return fmt.unpack_from(self._data, pos)[0]
