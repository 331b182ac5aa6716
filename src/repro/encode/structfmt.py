"""Declarative wire structs built on :mod:`repro.encode.buffer`.

Protocol messages in this repository are flat, fixed-field-order records
(that is what the 1988 implementation's C structs were).  Rather than hand
writing an ``encode``/``decode`` pair per message, a message class declares
its fields once::

    class Authenticator(WireStruct):
        FIELDS = (
            field("client", "string"),
            field("address", "u32"),
            field("timestamp", "f64"),
        )

and inherits byte-exact ``to_bytes`` / ``from_bytes``, equality, and repr.
Supported field kinds:

==========  ==========================================
kind        Python type
==========  ==========================================
``u8`` ..   int (width-checked)
``i32`` ..  int (signed)
``f64``     float
``bool``    bool
``bytes``   bytes (length-prefixed)
``string``  str (UTF-8, length-prefixed)
a class     nested :class:`WireStruct` subclass
``list:K``  list of scalar kind ``K`` (u32 count prefix)
(list, K)   list of any kind ``K`` — including a
            :class:`WireStruct` subclass (u32 count prefix)
==========  ==========================================
"""

from __future__ import annotations

from typing import Any, NamedTuple

from repro.encode.buffer import DecodeError, Decoder, EncodeError, Encoder


class field(NamedTuple):
    """One field declaration: a name plus a wire kind."""

    name: str
    kind: Any


_SCALAR_ENCODERS = {
    "u8": Encoder.u8,
    "u16": Encoder.u16,
    "u32": Encoder.u32,
    "u64": Encoder.u64,
    "i32": Encoder.i32,
    "i64": Encoder.i64,
    "f64": Encoder.f64,
    "bool": Encoder.boolean,
    "bytes": Encoder.bytes_,
    "string": Encoder.string,
}

_SCALAR_DECODERS = {
    "u8": Decoder.u8,
    "u16": Decoder.u16,
    "u32": Decoder.u32,
    "u64": Decoder.u64,
    "i32": Decoder.i32,
    "i64": Decoder.i64,
    "f64": Decoder.f64,
    "bool": Decoder.boolean,
    "bytes": Decoder.bytes_,
    "string": Decoder.string,
}


def _encode_value(enc: Encoder, kind: Any, value: Any) -> None:
    if isinstance(kind, tuple) and len(kind) == 2 and kind[0] == "list":
        if not isinstance(value, (list, tuple)):
            raise EncodeError(f"expected list, got {type(value).__name__}")
        enc.u32(len(value))
        for item in value:
            _encode_value(enc, kind[1], item)
        return
    if isinstance(kind, str):
        if kind.startswith("list:"):
            inner = kind[len("list:"):]
            if not isinstance(value, (list, tuple)):
                raise EncodeError(f"expected list, got {type(value).__name__}")
            enc.u32(len(value))
            for item in value:
                _encode_value(enc, inner, item)
            return
        try:
            writer = _SCALAR_ENCODERS[kind]
        except KeyError:
            raise EncodeError(f"unknown wire kind {kind!r}") from None
        writer(enc, value)
        return
    if isinstance(kind, type) and issubclass(kind, WireStruct):
        if not isinstance(value, kind):
            raise EncodeError(
                f"expected {kind.__name__}, got {type(value).__name__}"
            )
        value.encode_into(enc)
        return
    raise EncodeError(f"unsupported wire kind {kind!r}")


def _decode_value(dec: Decoder, kind: Any) -> Any:
    if isinstance(kind, tuple) and len(kind) == 2 and kind[0] == "list":
        count = dec.u32()
        if count > dec.remaining():
            raise DecodeError(f"list count {count} exceeds remaining bytes")
        return [_decode_value(dec, kind[1]) for _ in range(count)]
    if isinstance(kind, str):
        if kind.startswith("list:"):
            inner = kind[len("list:"):]
            count = dec.u32()
            if count > dec.remaining():
                raise DecodeError(f"list count {count} exceeds remaining bytes")
            return [_decode_value(dec, inner) for _ in range(count)]
        try:
            reader = _SCALAR_DECODERS[kind]
        except KeyError:
            raise DecodeError(f"unknown wire kind {kind!r}") from None
        return reader(dec)
    if isinstance(kind, type) and issubclass(kind, WireStruct):
        return kind.decode_from(dec)
    raise DecodeError(f"unsupported wire kind {kind!r}")


class WireStruct:
    """Base class for declaratively-defined wire records."""

    FIELDS: tuple = ()

    def __init__(self, **kwargs: Any) -> None:
        declared = {f.name for f in self.FIELDS}
        missing = declared - kwargs.keys()
        if missing:
            raise TypeError(
                f"{type(self).__name__} missing fields: {sorted(missing)}"
            )
        extra = kwargs.keys() - declared
        if extra:
            raise TypeError(
                f"{type(self).__name__} got unknown fields: {sorted(extra)}"
            )
        for name, value in kwargs.items():
            setattr(self, name, value)

    # -- serialization ----------------------------------------------------

    def encode_into(self, enc: Encoder) -> None:
        for f in self.FIELDS:
            _encode_value(enc, f.kind, getattr(self, f.name))

    @classmethod
    def decode_from(cls, dec: Decoder) -> "WireStruct":
        values = {f.name: _decode_value(dec, f.kind) for f in cls.FIELDS}
        return cls(**values)

    def to_bytes(self) -> bytes:
        enc = Encoder()
        self.encode_into(enc)
        return enc.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes) -> "WireStruct":
        dec = Decoder(data)
        obj = cls.decode_from(dec)
        dec.expect_eof()
        return obj

    # -- value semantics ----------------------------------------------------

    def _astuple(self) -> tuple:
        return tuple(getattr(self, f.name) for f in self.FIELDS)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        values = []
        for v in self._astuple():
            values.append(tuple(v) if isinstance(v, list) else v)
        return hash((type(self).__name__, tuple(values)))

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{f.name}={getattr(self, f.name)!r}" for f in self.FIELDS
        )
        return f"{type(self).__name__}({parts})"

    def replace(self, **changes: Any) -> "WireStruct":
        """Return a copy with the given fields replaced."""
        values = {f.name: getattr(self, f.name) for f in self.FIELDS}
        values.update(changes)
        return type(self)(**values)
