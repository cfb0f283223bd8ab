"""Serve-daemon fuzz: every request line gets exactly one well-formed reply.

Random JSON values, unknown ops and wrong-typed fields for every op go
to a :class:`FleetServer` over a small serial fleet.  Each must come
back as one JSON object carrying ``ok`` (and an ``error`` string when
``ok`` is false), with the connection still serving.  Generated numbers
stay small: one ``create_relation`` may otherwise ask for hundreds of
millions of cells.
"""

import json
import socket

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sharding import ShardedStreamEngine

from .test_serve import ServeHarness

READ_LIMIT = 4096

#: Every op the daemon serves, with the request fields it reads.
OP_FIELDS = {
    "ping": (),
    "create_relation": ("name", "attributes", "domains", "partition_by"),
    "register": ("name", "spec"),
    "unregister": ("name",),
    "ingest": ("relation", "rows", "kind"),
    "query": ("name", "policy", "mode"),
    "deadletters": ("replay",),
    "stats": (),
}

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-4, max_value=16)
    | st.floats(min_value=-4, max_value=16, allow_nan=False)
    | st.text(max_size=8)
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=12,
)
FUZZ = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(scope="module")
def harness():
    fleet = ShardedStreamEngine(num_shards=2, seed=5)
    fleet.enable_dead_lettering()
    harness = ServeHarness(fleet, read_limit=READ_LIMIT)
    yield harness
    harness.close()
    fleet.close()


@pytest.fixture(scope="module")
def stream(harness):
    sock = socket.create_connection(harness.address, timeout=30)
    stream = sock.makefile("rwb")
    yield stream
    stream.close()
    sock.close()


def exchange(stream, line):
    """Send one request line; return the parsed reply line."""
    stream.write(line + b"\n")
    stream.flush()
    reply = stream.readline()
    assert reply.endswith(b"\n")
    return json.loads(reply)


def assert_one_reply(stream, request):
    """The request's one reply; the line after it answers the next request."""
    reply = exchange(stream, json.dumps(request).encode())
    assert isinstance(reply, dict) and isinstance(reply["ok"], bool)
    if not reply["ok"]:
        assert isinstance(reply["error"], str)
    assert exchange(stream, b'{"op": "ping"}') == {"ok": True, "num_shards": 2, "up": [True, True]}
    return reply


class TestFuzz:
    @FUZZ
    @given(request=JSON_VALUES)
    def test_any_json_value(self, stream, request):
        assert_one_reply(stream, request)

    @FUZZ
    @given(
        op=st.text(max_size=12).filter(lambda op: op not in OP_FIELDS),
        fields=st.dictionaries(st.text(max_size=8), JSON_VALUES, max_size=3),
    )
    def test_unknown_op(self, stream, op, fields):
        reply = assert_one_reply(stream, {**fields, "op": op})
        assert reply["ok"] is False and "unknown op" in reply["error"]

    @FUZZ
    @given(data=st.data(), op=st.sampled_from(sorted(OP_FIELDS)))
    def test_every_op_with_arbitrary_fields(self, stream, data, op):
        fields = {name: data.draw(JSON_VALUES, label=name) for name in OP_FIELDS[op]}
        assert_one_reply(stream, {**fields, "op": op})


class TestReadLimit:
    def test_oversized_line_is_refused_and_closed(self, harness):
        with socket.create_connection(harness.address, timeout=30) as sock:
            stream = sock.makefile("rwb")
            reply = exchange(stream, b'{"op": "ping", "pad": "' + b"x" * READ_LIMIT + b'"}')
            assert reply == {"ok": False, "error": "request exceeds read limit"}
            try:
                assert stream.readline() == b""
            except ConnectionResetError:
                pass  # closed either way
        with socket.create_connection(harness.address, timeout=30) as sock:
            stream = sock.makefile("rwb")
            assert exchange(stream, b'{"op": "ping"}')["ok"] is True
