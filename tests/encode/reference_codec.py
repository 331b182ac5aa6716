"""The field walker, kept as the compiled codec's independent oracle.

Until PR 15 this *was* ``repro.encode.structfmt``: every message
re-discovered each field's kind through an ``isinstance`` /
``startswith`` / dict-lookup chain and read or wrote it through one
:class:`~repro.encode.Encoder` / :class:`~repro.encode.Decoder`
primitive.  The production codec is now generated per class; this file
keeps the interpreter — moved, not rewritten, except that nested structs
recurse through the walker instead of the class's own (now compiled)
methods, so nothing here runs a generated encoder or decoder.  It uses
``Encoder`` and ``Decoder`` primitives, a class's ``FIELDS`` and its
keyword constructor, nothing else.

Never edit this file together with ``structfmt.py``: it is what the
generated code is checked against, byte for byte and error for error
(``test_all_wire_structs.py``, ``test_codec_fuzz.py``).
"""

from repro.encode import DecodeError, Decoder, EncodeError, Encoder, WireStruct
from repro.principal import PrincipalError

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


def _encode_value(enc, kind, value):
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
        encode_into(value, enc)
        return
    raise EncodeError(f"unsupported wire kind {kind!r}")


def _decode_value(dec, kind):
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
        return decode_from(kind, dec)
    raise DecodeError(f"unsupported wire kind {kind!r}")


# -- what WireStruct's four codec methods used to be -------------------------


def encode_into(obj, enc):
    for f in obj.FIELDS:
        _encode_value(enc, f.kind, getattr(obj, f.name))


def decode_from(cls, dec):
    values = {f.name: _decode_value(dec, f.kind) for f in cls.FIELDS}
    return cls(**values)


def to_bytes(obj):
    enc = Encoder()
    encode_into(obj, enc)
    return enc.getvalue()


def from_bytes(cls, data):
    dec = Decoder(data)
    obj = decode_from(cls, dec)
    dec.expect_eof()
    return obj


# -- damaging a wire, comparing the two codecs -------------------------------


def flip_bit(wire, at):
    """``wire`` with bit ``at`` (0 = lowest bit of the first byte) flipped."""
    flipped = bytearray(wire)
    flipped[at // 8] ^= 1 << (at % 8)
    return bytes(flipped)


def plain(value):
    """``value`` with every struct spelled out as ``(class, {field:
    value})``, walking ``FIELDS`` — so two decodes compare without
    trusting the generated ``_astuple`` / ``__eq__``."""
    if isinstance(value, WireStruct):
        return (
            type(value),
            {f.name: plain(getattr(value, f.name)) for f in value.FIELDS},
        )
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    if isinstance(value, float):
        return ("float", value.hex())  # -0.0 and 0.0 are different bytes
    # Tagged with the exact type: True == 1 and b"x" == memoryview(b"x").
    return (type(value).__name__, value)


#: The typed refusals a codec may raise.  ``PrincipalError`` is the one
#: hand-written constructor's (Figure 2's name rules apply to names read
#: off the wire too).  Deliberately not ``ValueError``: that would let a
#: leaked ``UnicodeDecodeError`` through.
REFUSALS = (EncodeError, DecodeError, PrincipalError)


def outcome(call, *args):
    """What ``call(*args)`` did: ``("ok", plain result)`` or ``(refusal
    type, message)`` — anything else (``struct.error``, ``IndexError``,
    ``UnicodeDecodeError``…) propagates, which is the point of the fuzz
    suites."""
    try:
        return ("ok", plain(call(*args)))
    except REFUSALS as exc:
        return (type(exc), str(exc))
