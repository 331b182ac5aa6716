"""Batch framing: zero-copy reads, single-pass writes into one buffer."""

import pytest

from repro.core.messages import AsRequest, MessageType, encode_message
from repro.encode import BatchReader, BatchWriter, DecodeError, pack_frames
from repro.principal import Principal


def _as_request(i: int) -> AsRequest:
    return AsRequest(
        client=Principal(f"user{i}", "", "ATHENA.MIT.EDU"),
        service=Principal("krbtgt", "ATHENA.MIT.EDU", "ATHENA.MIT.EDU"),
        requested_life=300.0 * i,
        timestamp=float(i),
    )


@pytest.fixture
def payloads():
    return [
        encode_message(MessageType.AS_REQ, _as_request(i)) for i in range(6)
    ]


class TestBatchReader:
    def test_roundtrip_preserves_every_frame(self, payloads):
        frames = BatchReader(pack_frames(payloads)).frames()
        assert [bytes(f) for f in frames] == payloads

    def test_frames_are_views_into_the_buffer(self, payloads):
        """Zero-copy: each frame is a memoryview over the one buffer,
        not a per-message bytes object."""
        buffer = pack_frames(payloads)
        for frame in BatchReader(buffer):
            assert isinstance(frame, memoryview)
            assert frame.obj is buffer

    def test_empty_buffer_is_an_empty_batch(self):
        assert BatchReader(b"").frames() == []

    def test_truncated_final_payload(self, payloads):
        """The last frame's payload is cut short: typed error naming the
        frame, after the complete frames were yielded."""
        buffer = pack_frames(payloads)
        reader = iter(BatchReader(buffer[:-4]))
        for _ in range(len(payloads) - 1):
            next(reader)
        with pytest.raises(DecodeError, match="truncated frame 5"):
            next(reader)

    def test_truncated_length_prefix(self, payloads):
        buffer = pack_frames(payloads) + b"\x00\x00"
        with pytest.raises(DecodeError, match="length prefix"):
            BatchReader(buffer).frames()

    def test_absurd_length_prefix_rejected(self):
        buffer = (1 << 31).to_bytes(4, "big")
        with pytest.raises(DecodeError, match="exceeds maximum"):
            BatchReader(buffer).frames()

    def test_non_buffer_rejected(self):
        with pytest.raises(DecodeError):
            BatchReader(["not", "bytes"])


class TestDecoderOverViews:
    def test_decoder_accepts_memoryview_without_copy(self, payloads):
        frame = BatchReader(pack_frames(payloads)).frames()[2]
        assert frame[0] == int(MessageType.AS_REQ)
        assert AsRequest.read_at(frame, 1) == (_as_request(2), len(frame))

    def test_view_short_read_raises(self):
        with pytest.raises(DecodeError, match="short read"):
            AsRequest.read_at(memoryview(b"\x00\x01"))


class TestBatchWriter:
    def test_matches_encode_message_per_item(self, payloads):
        writer = BatchWriter()
        for i in range(6):
            writer.add(MessageType.AS_REQ, _as_request(i))
        assert [bytes(v) for v in writer.finish()] == payloads

    def test_single_backing_buffer(self):
        writer = BatchWriter()
        for i in range(4):
            writer.add(MessageType.AS_REQ, _as_request(i))
        views = writer.finish()
        assert len({id(v.obj) for v in views}) == 1
        assert sum(len(v) for v in views) == len(views[0].obj)

    def test_empty_batch(self):
        assert BatchWriter().finish() == []

