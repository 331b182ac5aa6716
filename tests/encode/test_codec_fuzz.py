"""Damage on the wire and wrong values in memory meet typed refusals.

The codec's encoders and decoders are generated code over precompiled
``struct.Struct`` objects and raw slices, so the failure modes worth
fearing are the untyped ones: a ``struct.error`` from a packer, an
``IndexError`` from a buffer, a ``UnicodeDecodeError`` from a string
field, a ``MemoryError`` from a length prefix taken at its word.  Every
front door is fed the 29 golden vectors cut at every length and with
seeded single-bit flips, and must either decode or raise its typed
refusal; wherever a vector has a struct class, the generated decoder
must also agree with the reference walker (``reference_codec.py``) on
the value or on the refusal, text included.  The encode-side twin hands
each kind a value of the wrong type or out of range.
"""

import json
import linecache
import random
import traceback
from pathlib import Path

import pytest

from repro.core import ErrorCode, KerberosError
from repro.core.authenticator import Authenticator
from repro.core.messages import (
    ApReply,
    ApRequest,
    AsRequest,
    ErrorReply,
    KdcReply,
    KdcReplyBody,
    MessageType,
    PreauthAsRequest,
    TgsRequest,
    decode_message,
)
from repro.core.safe_priv import PrivMessage, SafeMessage
from repro.core.ticket import Ticket
from repro.database.journal import JournalEntry
from repro.database.schema import PrincipalRecord
from repro.encode import (
    BatchReader,
    DecodeError,
    Decoder,
    EncodeError,
    WireStruct,
    field,
    pack_frames,
)
from repro.kdbm.messages import AdminReplyBody, AdminRequestBody, KdbmRequest
from repro.principal import Principal
from repro.replication.messages import (
    DeltaBody,
    DeltaReply,
    DeltaTransfer,
    PropReply,
    PropTransfer,
    decode_prop_message,
)

from tests.encode import reference_codec as reference

VECTORS = {
    name: bytes.fromhex(encoded)
    for name, encoded in json.loads(
        Path(__file__).with_name("golden_vectors.json").read_text("utf-8")
    ).items()
}

#: The struct each vector is the plain encoding of.  The rest are sealed
#: blobs, enveloped transfers, a raw dump and a checksum — opaque to the
#: codec, which makes them good garbage.
VECTOR_CLASSES = {
    "error_reply": ErrorReply,
    "fig2_record_struct": PrincipalRecord,
    "fig3_ticket": Ticket,
    "fig4_authenticator": Authenticator,
    "fig5_as_request": AsRequest,
    "fig5_preauth_as_request": PreauthAsRequest,
    "fig5_kdc_reply_body": KdcReplyBody,
    "fig5_as_reply": KdcReply,
    "fig6_ap_request": ApRequest,
    "fig7_ap_reply": ApReply,
    "fig8_tgs_request": TgsRequest,
    "safe_message": SafeMessage,
    "priv_message": PrivMessage,
    "fig12_admin_request_body": AdminRequestBody,
    "fig12_kdbm_request": KdbmRequest,
    "fig12_admin_reply_body": AdminReplyBody,
    "fig13_prop_transfer": PropTransfer,
    "fig13_prop_reply": PropReply,
    "fig13_journal_entry": JournalEntry,
    "fig13_delta_body": DeltaBody,
    "fig13_delta_transfer": DeltaTransfer,
    "fig13_delta_reply": DeltaReply,
}

FLIPS_PER_VECTOR = 64


def damaged(name):
    """Every proper prefix of a vector, then seeded single-bit flips."""
    wire = VECTORS[name]
    yield from (wire[:cut] for cut in range(len(wire)))
    rng = random.Random(f"codec-fuzz-{name}")
    for _ in range(FLIPS_PER_VECTOR):
        yield reference.flip_bit(wire, rng.randrange(len(wire) * 8))


def test_every_vector_is_covered():
    assert len(VECTORS) == 29
    assert set(VECTOR_CLASSES) <= set(VECTORS)
    for name, cls in VECTOR_CLASSES.items():
        assert cls.from_bytes(VECTORS[name]).to_bytes() == VECTORS[name]


@pytest.mark.parametrize("name", sorted(VECTORS))
def test_damaged_vectors_meet_typed_refusals(name):
    cls = VECTOR_CLASSES.get(name, Ticket)
    for bad in damaged(name):
        # The KDC's front door: any refusal is a KDC_GEN_ERR reply.
        for envelope in (bad, bytes([MessageType.AS_REQ]) + bad):
            try:
                decode_message(memoryview(envelope))
            except KerberosError as err:
                assert err.code == ErrorCode.KDC_GEN_ERR
        # kpropd's front door.
        try:
            decode_prop_message(bad)
        except DecodeError:
            pass
        # The struct itself — anything but a typed refusal propagates
        # out of ``outcome`` and fails the test — and the walker's
        # verdict on the same bytes.
        assert reference.outcome(cls.from_bytes, bad) == reference.outcome(
            reference.from_bytes, cls, bad
        ), bad.hex()


def test_truncated_batch_buffer():
    """An 8-frame request buffer cut anywhere yields its complete frames
    and then one ``DecodeError`` — and each frame it does yield decodes
    or is refused like any datagram."""
    frames = [
        bytes([MessageType.AS_REQ]) + VECTORS["fig5_as_request"],
        bytes([MessageType.TGS_REQ]) + VECTORS["fig8_tgs_request"],
    ] * 4
    buffer = pack_frames(frames)
    ends = []
    for frame in frames:
        ends.append((ends[-1] if ends else 0) + 4 + len(frame))
    assert [bytes(f) for f in BatchReader(buffer)] == frames
    for cut in range(len(buffer)):
        whole = sum(1 for end in ends if end <= cut)
        seen = []
        if cut in [0] + ends:
            seen.extend(BatchReader(buffer[:cut]))
        else:
            with pytest.raises(DecodeError, match=f"frame {whole}"):
                for frame in BatchReader(memoryview(buffer)[:cut]):
                    seen.append(frame)
        assert [bytes(f) for f in seen] == frames[:whole]
    rng = random.Random("codec-fuzz-batch")
    for _ in range(256):
        flipped = reference.flip_bit(buffer, rng.randrange(len(buffer) * 8))
        try:
            for frame in BatchReader(flipped):
                try:
                    decode_message(frame)
                except KerberosError as err:
                    assert err.code == ErrorCode.KDC_GEN_ERR
        except DecodeError:
            pass


# -- the first fault in field order wins, inside a fused run too -------------


class Fused(WireStruct):
    """One run: u8, bool, u32, then a string's length prefix."""

    FIELDS = (
        field("a", "u8"), field("ok", "bool"), field("n", "u32"),
        field("text", "string"),
    )


def test_fused_run_reports_the_first_fault_in_field_order():
    wire = Fused(a=1, ok=True, n=7, text="hi").to_bytes()
    bad_bool = bytearray(wire)
    bad_bool[1] = 2
    cases = {
        b"": "short read: wanted 1 bytes, 0 remain",
        wire[:1]: "short read: wanted 1 bytes, 0 remain",
        wire[:4]: "short read: wanted 4 bytes, 2 remain",
        wire[:8]: "short read: wanted 4 bytes, 2 remain",
        wire[:11]: "short read: wanted 2 bytes, 1 remain",
        # The boolean is read before the fields that are missing ...
        bytes(bad_bool[:4]): "invalid boolean byte 2",
        bytes(bad_bool): "invalid boolean byte 2",
        # ... but not before the one that is.
        bytes(bad_bool[:1]): "short read: wanted 1 bytes, 0 remain",
    }
    for bad, message in cases.items():
        with pytest.raises(DecodeError) as caught:
            Fused.from_bytes(bad)
        assert str(caught.value) == message
        assert reference.outcome(reference.from_bytes, Fused, bad) == (
            DecodeError, message,
        )


def test_invalid_utf8_and_length_bombs_are_decode_errors():
    for bad, match in [
        (b"\x01\x01\x00\x00\x00\x07\x00\x00\x00\x02\xff\xfe", "invalid UTF-8"),
        (b"\x01\x01\x00\x00\x00\x07\xff\xff\xff\xff", "exceeds maximum"),
        (b"\x01\x01\x00\x00\x00\x07\x03\xff\xff\xff", "short read"),
    ]:
        with pytest.raises(DecodeError, match=match) as caught:
            Fused.from_bytes(bad)
        assert reference.outcome(reference.from_bytes, Fused, bad) == (
            DecodeError, str(caught.value),
        )


# -- the encode-side twin ----------------------------------------------------


class Inner(WireStruct):
    FIELDS = (field("x", "i32"),)


class Other(WireStruct):
    FIELDS = (field("x", "i32"),)


class EveryKind(WireStruct):
    FIELDS = (
        field("u8", "u8"), field("u16", "u16"), field("u32", "u32"),
        field("u64", "u64"), field("i32", "i32"), field("i64", "i64"),
        field("f64", "f64"), field("flag", "bool"), field("blob", "bytes"),
        field("text", "string"), field("inner", Inner),
        field("tags", "list:u16"), field("inners", ("list", Inner)),
    )


GOOD = dict(
    u8=1, u16=2, u32=3, u64=4, i32=-5, i64=-6, f64=7.5, flag=True,
    blob=b"b", text="t", inner=Inner(x=1), tags=[1, 2], inners=[Inner(x=2)],
)

WRONG = [
    ("u8", True, "expected int, got bool"),
    ("u8", 256, "value 256 out of range [0, 255]"),
    ("u8", -1, "value -1 out of range [0, 255]"),
    ("u16", 2**16, "value 65536 out of range [0, 65535]"),
    ("u32", True, "expected int, got bool"),
    ("u32", 2**32, "value 4294967296 out of range [0, 4294967295]"),
    ("u32", 1.0, "expected int, got float"),
    ("u32", "1", "expected int, got str"),
    ("u32", None, "expected int, got NoneType"),
    ("u64", 2**64, f"value {2**64} out of range [0, {2**64 - 1}]"),
    ("i32", 2**31, f"value {2**31} out of range [{-2**31}, {2**31 - 1}]"),
    ("i32", -(2**31) - 1,
     f"value {-2**31 - 1} out of range [{-2**31}, {2**31 - 1}]"),
    ("i64", 2**63, f"value {2**63} out of range [{-2**63}, {2**63 - 1}]"),
    ("f64", "x", "expected float, got str"),
    ("f64", True, "expected float, got bool"),
    ("f64", None, "expected float, got NoneType"),
    ("flag", 1, "expected bool, got int"),
    ("flag", None, "expected bool, got NoneType"),
    ("blob", "text", "expected bytes, got str"),
    ("blob", 7, "expected bytes, got int"),
    ("text", b"bytes", "expected str, got bytes"),
    ("inner", Other(x=1), "expected Inner, got Other"),
    ("inner", None, "expected Inner, got NoneType"),
    ("tags", "ab", "expected list, got str"),
    ("tags", None, "expected list, got NoneType"),
    ("tags", [1, True], "expected int, got bool"),
    ("tags", [2**16], "value 65536 out of range [0, 65535]"),
    ("inners", [Other(x=1)], "expected Inner, got Other"),
    ("inners", Inner(x=1), "expected list, got Inner"),
]


@pytest.mark.parametrize(
    "name,value,message", WRONG,
    ids=[f"{name}-{i}" for i, (name, _v, _m) in enumerate(WRONG)],
)
def test_wrong_values_meet_encode_errors(name, value, message):
    instance = EveryKind(**GOOD)
    setattr(instance, name, value)
    with pytest.raises(EncodeError) as caught:
        instance.to_bytes()
    assert str(caught.value) == message
    assert reference.outcome(reference.to_bytes, instance) == (
        EncodeError, message,
    )


def test_lenient_values_still_encode():
    """What the primitives always accepted beyond the exact type: an
    ``IntEnum`` for an integer, an int for ``f64``, any bytes-like for
    ``bytes``, a tuple for a list."""
    lenient = EveryKind(**dict(
        GOOD, u8=MessageType.AS_REQ, f64=7, blob=bytearray(b"b"),
        tags=(1, 2), inners=(Inner(x=2),),
    ))
    strict = EveryKind(**dict(GOOD, u8=1, f64=7.0))
    assert lenient.to_bytes() == strict.to_bytes()
    assert lenient.to_bytes() == reference.to_bytes(lenient)
    lenient.blob = memoryview(b"b")
    assert lenient.to_bytes() == strict.to_bytes()


def test_constructor_names_missing_and_unknown_fields():
    with pytest.raises(TypeError, match=r"Inner missing fields: \['x'\]"):
        Inner()
    with pytest.raises(TypeError, match=r"Inner got unknown fields: \['y'\]"):
        Inner(x=1, y=2)
    with pytest.raises(TypeError, match=r"missing fields: \['i32', 'u8'\]"):
        EveryKind(**{k: v for k, v in GOOD.items() if k not in ("u8", "i32")})
    with pytest.raises(TypeError):
        Inner(1)  # fields are keyword-only, as ever
    with pytest.raises(EncodeError, match="not a unique public identifier"):

        class Twice(WireStruct):
            FIELDS = (field("x", "u8"), field("x", "u8"))

    with pytest.raises(EncodeError, match="not a unique public identifier"):

        class Keyword(WireStruct):
            FIELDS = (field("from", "u8"),)


# -- attribution survives codegen --------------------------------------------


def test_generated_code_is_attributed_to_the_encode_package():
    """Profiles charge time by ``co_filename``: the ledger's ``layer_of``
    (benchmarks/ledger/tracing.py) maps ``…/repro/encode/…`` to the
    ``encode`` layer, a bare ``<string>`` to whoever called it."""
    from benchmarks.ledger.tracing import layer_of

    for cls in (AsRequest, Ticket, Principal):
        functions = [
            cls.encode_into, cls.decode_from.__func__, cls._astuple,
            cls.__hash__,
        ]
        if cls is not Principal:  # whose constructor is hand-written
            functions.append(cls.__init__)
        for function in functions:
            filename = function.__code__.co_filename
            assert "/repro/encode/" in filename
            assert f"<codec {cls.__qualname__}>" in filename
            assert layer_of(filename) == "encode"
    assert layer_of(Principal.__init__.__code__.co_filename) == "core.applib"


def test_tracebacks_show_the_generated_line():
    request = AsRequest.from_bytes(VECTORS["fig5_as_request"])
    request.requested_life = "soon"
    with pytest.raises(EncodeError) as caught:
        request.to_bytes()
    text = "".join(traceback.format_exception(caught.value))
    assert "<codec AsRequest>" in text
    assert "_as_float(" in text  # the source line, via linecache
    linecache.checkcache()  # a generated entry survives a cache sweep
    filename = AsRequest.encode_into.__code__.co_filename
    assert "def encode_into(self, enc):\n" in linecache.getlines(filename)


def test_module_docstring_shows_real_generated_code():
    """The worked example in ``structfmt``'s docstring is the code the
    compile step really emits for ``Authenticator``."""
    from repro.encode import structfmt

    shown = [
        line[4:] for line in structfmt.__doc__.splitlines()
        if line.startswith("    ")
    ]
    source = linecache.getlines(
        Authenticator.encode_into.__code__.co_filename
    )
    generated = [line.rstrip("\n") for line in source]
    start = generated.index("def encode_into(self, enc):")
    end = generated.index("def _astuple(self):")
    example = [line for line in generated[start:end] if line]
    assert [line for line in shown if line in example] == example


def test_decoder_hands_the_cursor_back():
    data = VECTORS["fig4_authenticator"] + VECTORS["fig3_ticket"]
    dec = Decoder(data)
    assert Authenticator.decode_from(dec).to_bytes() == VECTORS[
        "fig4_authenticator"
    ]
    assert Ticket.decode_from(dec).to_bytes() == VECTORS["fig3_ticket"]
    dec.expect_eof()
