"""Unit and property tests for the oracle's encoder/decoder primitives."""

import pytest
from hypothesis import given, strategies as st

from repro.encode import DecodeError, EncodeError
from repro.encode.structfmt import MAX_FIELD_LENGTH
from tests.encode.primitives import Decoder, Encoder


class TestIntegerRoundTrips:
    @pytest.mark.parametrize(
        "method,value",
        [
            ("u8", 0), ("u8", 255),
            ("u16", 0), ("u16", 65535),
            ("u32", 0), ("u32", 2**32 - 1),
            ("u64", 0), ("u64", 2**64 - 1),
            ("i32", -(2**31)), ("i32", 2**31 - 1), ("i32", 0),
            ("i64", -(2**63)), ("i64", 2**63 - 1),
        ],
    )
    def test_round_trip_bounds(self, method, value):
        enc = Encoder()
        getattr(enc, method)(value)
        dec = Decoder(enc.getvalue())
        assert getattr(dec, method)() == value
        dec.expect_eof()

    @pytest.mark.parametrize(
        "method,value",
        [
            ("u8", -1), ("u8", 256),
            ("u16", 65536),
            ("u32", 2**32), ("u32", -5),
            ("u64", 2**64),
            ("i32", 2**31), ("i32", -(2**31) - 1),
            ("i64", 2**63),
        ],
    )
    def test_out_of_range_rejected(self, method, value):
        with pytest.raises(EncodeError):
            getattr(Encoder(), method)(value)

    def test_non_int_rejected(self):
        with pytest.raises(EncodeError):
            Encoder().u32("5")

    def test_bool_is_not_an_int(self):
        with pytest.raises(EncodeError):
            Encoder().u8(True)

    def test_big_endian_layout(self):
        assert Encoder().u32(0x01020304).getvalue() == b"\x01\x02\x03\x04"
        assert Encoder().u16(0xBEEF).getvalue() == b"\xbe\xef"

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_u64_property(self, value):
        data = Encoder().u64(value).getvalue()
        assert Decoder(data).u64() == value

    @given(st.integers(min_value=-(2**31), max_value=2**31 - 1))
    def test_i32_property(self, value):
        data = Encoder().i32(value).getvalue()
        assert Decoder(data).i32() == value


class TestFloatsAndBools:
    @given(st.floats(allow_nan=False))
    def test_f64_property(self, value):
        data = Encoder().f64(value).getvalue()
        assert Decoder(data).f64() == value

    def test_f64_rejects_non_number(self):
        with pytest.raises(EncodeError):
            Encoder().f64("3.14")

    def test_boolean_round_trip(self):
        data = Encoder().boolean(True).boolean(False).getvalue()
        dec = Decoder(data)
        assert dec.boolean() is True
        assert dec.boolean() is False

    def test_boolean_strict_byte(self):
        with pytest.raises(DecodeError):
            Decoder(b"\x02").boolean()

    def test_boolean_rejects_int(self):
        with pytest.raises(EncodeError):
            Encoder().boolean(1)


class TestByteStrings:
    @given(st.binary(max_size=1024))
    def test_bytes_round_trip(self, data):
        wire = Encoder().bytes_(data).getvalue()
        dec = Decoder(wire)
        assert dec.bytes_() == data
        dec.expect_eof()

    @given(st.text(max_size=256))
    def test_string_round_trip(self, text):
        wire = Encoder().string(text).getvalue()
        assert Decoder(wire).string() == text

    def test_string_rejects_bytes(self):
        with pytest.raises(EncodeError):
            Encoder().string(b"not a str")

    def test_bytes_rejects_str(self):
        with pytest.raises(EncodeError):
            Encoder().bytes_("not bytes")

    def test_raw_has_no_prefix(self):
        assert Encoder().raw(b"abc").getvalue() == b"abc"

    def test_length_prefix_cap_encoding(self):
        with pytest.raises(EncodeError):
            # Fake oversized field without allocating 64 MiB: subclass check
            Encoder().bytes_(bytearray(MAX_FIELD_LENGTH + 1))

    def test_length_prefix_cap_decoding(self):
        wire = Encoder().u32(MAX_FIELD_LENGTH + 1).getvalue()
        with pytest.raises(DecodeError):
            Decoder(wire).bytes_()

    def test_invalid_utf8_rejected(self):
        wire = Encoder().bytes_(b"\xff\xfe\xfd").getvalue()
        with pytest.raises(DecodeError):
            Decoder(wire).string()


class TestDecoderStrictness:
    def test_short_read(self):
        with pytest.raises(DecodeError):
            Decoder(b"\x00\x01").u32()

    def test_trailing_garbage_detected(self):
        dec = Decoder(b"\x01\x02")
        dec.u8()
        with pytest.raises(DecodeError):
            dec.expect_eof()

    def test_truncated_bytes_field(self):
        wire = Encoder().u32(100).getvalue() + b"short"
        with pytest.raises(DecodeError):
            Decoder(wire).bytes_()

    def test_rest_consumes_everything(self):
        dec = Decoder(b"\x01rest-of-message")
        dec.u8()
        assert dec.rest() == b"rest-of-message"
        assert dec.eof()

    def test_negative_raw_read(self):
        with pytest.raises(DecodeError):
            Decoder(b"abc").raw(-1)

    def test_remaining_counts_down(self):
        dec = Decoder(b"\x00" * 10)
        assert dec.remaining() == 10
        dec.u32()
        assert dec.remaining() == 6

    def test_decoder_rejects_non_bytes(self):
        with pytest.raises(DecodeError):
            Decoder("a string")


class TestLists:
    def test_list_round_trip(self):
        wire = Encoder().list_of([1, 2, 3], lambda e, v: e.u16(v)).getvalue()
        assert Decoder(wire).list_of(lambda d: d.u16()) == [1, 2, 3]

    def test_empty_list(self):
        wire = Encoder().list_of([], lambda e, v: e.u8(v)).getvalue()
        assert Decoder(wire).list_of(lambda d: d.u8()) == []

    def test_absurd_count_rejected(self):
        wire = Encoder().u32(10_000_000).getvalue()
        with pytest.raises(DecodeError):
            Decoder(wire).list_of(lambda d: d.u8())


class TestComposition:
    @given(
        st.integers(min_value=0, max_value=255),
        st.binary(max_size=64),
        st.text(max_size=32),
        st.integers(min_value=-(2**31), max_value=2**31 - 1),
    )
    def test_mixed_sequence_round_trip(self, a, b, c, d):
        enc = Encoder()
        enc.u8(a).bytes_(b).string(c).i32(d)
        dec = Decoder(enc.getvalue())
        assert dec.u8() == a
        assert dec.bytes_() == b
        assert dec.string() == c
        assert dec.i32() == d
        dec.expect_eof()

    def test_encoder_len(self):
        enc = Encoder()
        assert len(enc) == 0
        enc.u32(1)
        assert len(enc) == 4

    def test_chaining_returns_encoder(self):
        enc = Encoder()
        assert enc.u8(1).u16(2).u32(3) is enc
