"""Wire framing: length-prefixed pickles, EOF, desync, and size guards."""

import pickle
import socket
import struct

import pytest

from repro.sharding.worker import (
    MAX_FRAME_BYTES,
    ProtocolError,
    recv_frame,
    send_frame,
)


@pytest.fixture
def pair():
    a, b = socket.socketpair()
    yield a, b
    a.close()
    b.close()


class TestRoundTrip:
    @pytest.mark.parametrize(
        "obj",
        [
            None,
            ("ok", 42),
            {"nested": [1, 2.5, "three", (4,)]},
            ("ingest", ("R1", [[1], [2], [3]], "insert"), {"traceparent": None}),
            b"\x00" * 4096,
        ],
    )
    def test_objects_survive_the_wire(self, pair, obj):
        a, b = pair
        send_frame(a, obj)
        assert recv_frame(b) == obj

    def test_many_frames_stay_in_order(self, pair):
        a, b = pair
        for i in range(50):
            send_frame(a, ("frame", i))
        assert [recv_frame(b) for _ in range(50)] == [("frame", i) for i in range(50)]


class TestFailureModes:
    def test_clean_close_raises_eoferror(self, pair):
        a, b = pair
        a.close()
        with pytest.raises(EOFError):
            recv_frame(b)

    def test_truncated_payload_raises_eoferror(self, pair):
        a, b = pair
        payload = pickle.dumps(("ok", "x" * 100))
        a.sendall(struct.pack(">Q", len(payload)) + payload[: len(payload) // 2])
        a.close()
        with pytest.raises(EOFError):
            recv_frame(b)

    def test_oversized_header_raises_protocol_error(self, pair):
        a, b = pair
        a.sendall(struct.pack(">Q", MAX_FRAME_BYTES + 1))
        with pytest.raises(ProtocolError, match="frame"):
            recv_frame(b)

    def test_garbage_payload_raises_protocol_error(self, pair):
        a, b = pair
        garbage = b"this is not a pickle at all"
        a.sendall(struct.pack(">Q", len(garbage)) + garbage)
        with pytest.raises(ProtocolError):
            recv_frame(b)

    def test_oversized_send_is_refused_before_writing(self, pair, monkeypatch):
        import repro.sharding.worker as protocol

        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 64)
        a, b = pair
        with pytest.raises(ProtocolError, match="frame"):
            send_frame(a, "x" * 1024)
        # nothing hit the wire: the peer still sees a clean, empty stream
        a.close()
        with pytest.raises(EOFError):
            recv_frame(b)
