"""Tests for declarative WireStruct serialization."""

import pytest
from hypothesis import given, strategies as st

from repro.encode import Decoder, DecodeError, EncodeError, Encoder, WireStruct, field


class Point(WireStruct):
    FIELDS = (field("x", "i32"), field("y", "i32"))


class Packet(WireStruct):
    FIELDS = (
        field("kind", "u8"),
        field("name", "string"),
        field("payload", "bytes"),
        field("origin", Point),
        field("tags", "list:string"),
        field("when", "f64"),
        field("urgent", "bool"),
    )


def make_packet(**overrides):
    values = dict(
        kind=3,
        name="rlogin.priam",
        payload=b"\x01\x02\x03",
        origin=Point(x=-5, y=42),
        tags=["a", "b"],
        when=1234.5,
        urgent=True,
    )
    values.update(overrides)
    return Packet(**values)


class TestConstruction:
    def test_missing_field_rejected(self):
        with pytest.raises(TypeError, match="missing"):
            Point(x=1)

    def test_unknown_field_rejected(self):
        with pytest.raises(TypeError, match="unknown"):
            Point(x=1, y=2, z=3)

    def test_repr_contains_fields(self):
        assert "x=1" in repr(Point(x=1, y=2))

    def test_equality_by_value(self):
        assert Point(x=1, y=2) == Point(x=1, y=2)
        assert Point(x=1, y=2) != Point(x=1, y=3)

    def test_equality_requires_same_type(self):
        class Point2(WireStruct):
            FIELDS = (field("x", "i32"), field("y", "i32"))

        assert Point(x=1, y=2) != Point2(x=1, y=2)

    def test_hashable(self):
        assert len({Point(x=1, y=2), Point(x=1, y=2)}) == 1

    def test_replace(self):
        p = Point(x=1, y=2).replace(y=9)
        assert (p.x, p.y) == (1, 9)


class TestSerialization:
    def test_round_trip(self):
        pkt = make_packet()
        assert Packet.from_bytes(pkt.to_bytes()) == pkt

    def test_nested_struct_round_trip(self):
        pkt = make_packet(origin=Point(x=2**31 - 1, y=-(2**31)))
        out = Packet.from_bytes(pkt.to_bytes())
        assert out.origin == pkt.origin

    def test_empty_list_round_trip(self):
        pkt = make_packet(tags=[])
        assert Packet.from_bytes(pkt.to_bytes()).tags == []

    def test_trailing_bytes_rejected(self):
        data = make_packet().to_bytes() + b"\x00"
        with pytest.raises(DecodeError):
            Packet.from_bytes(data)

    def test_truncated_rejected(self):
        data = make_packet().to_bytes()[:-3]
        with pytest.raises(DecodeError):
            Packet.from_bytes(data)

    def test_deterministic_encoding(self):
        assert make_packet().to_bytes() == make_packet().to_bytes()

    def test_wrong_nested_type_rejected(self):
        pkt = make_packet()
        pkt.origin = "not a point"
        with pytest.raises(EncodeError):
            pkt.to_bytes()

    def test_list_field_must_be_list(self):
        pkt = make_packet()
        pkt.tags = "ab"
        with pytest.raises(EncodeError):
            pkt.to_bytes()

    @given(
        st.integers(min_value=-(2**31), max_value=2**31 - 1),
        st.integers(min_value=-(2**31), max_value=2**31 - 1),
    )
    def test_point_property_round_trip(self, x, y):
        p = Point(x=x, y=y)
        assert Point.from_bytes(p.to_bytes()) == p

    @given(
        st.text(max_size=40),
        st.binary(max_size=40),
        st.lists(st.text(max_size=10), max_size=5),
        st.floats(allow_nan=False),
        st.booleans(),
    )
    def test_packet_property_round_trip(self, name, payload, tags, when, urgent):
        pkt = make_packet(
            name=name, payload=payload, tags=tags, when=when, urgent=urgent
        )
        assert Packet.from_bytes(pkt.to_bytes()) == pkt


class TestKindErrors:
    # The codec is compiled by the ``class`` statement, so a kind it has
    # no code for is refused there — before any instance could reach an
    # encoder or a decoder.

    def test_unknown_kind_encode(self):
        with pytest.raises(EncodeError, match="unknown wire kind 'u7'"):

            class Bad(WireStruct):
                FIELDS = (field("v", "u7"),)

        with pytest.raises(EncodeError, match="unknown wire kind 'u7'"):

            class BadItems(WireStruct):
                FIELDS = (field("v", "list:u7"),)

    def test_unknown_kind_decode(self):
        with pytest.raises(EncodeError, match="unsupported wire kind"):

            class Bad(WireStruct):
                FIELDS = (field("v", int),)

        with pytest.raises(EncodeError, match="unsupported wire kind"):

            class BadItems(WireStruct):
                FIELDS = (field("v", ("list", None)),)

    def test_list_count_bomb_rejected(self):
        # u32 count claiming 2**31 items must not attempt the loop.
        data = Encoder().u32(2**31).getvalue()
        dec = Decoder(data)

        class Tags(WireStruct):
            FIELDS = (field("tags", "list:u8"),)

        with pytest.raises(DecodeError):
            Tags.decode_from(dec)

    def test_encode_into_partial_stream(self):
        enc = Encoder()
        enc.u8(0xAA)
        Point(x=1, y=2).encode_into(enc)
        dec = Decoder(enc.getvalue())
        assert dec.u8() == 0xAA
        assert Point.decode_from(dec) == Point(x=1, y=2)
