"""FleetServer: the newline-JSON daemon — ops, degradation, backpressure."""

import json
import os
import signal
import socket
import threading
import time

import pytest

from repro.fleet import FleetClient, FleetServer
from repro.sharding import ShardedStreamEngine

from .conftest import build_fleet, build_socket_fleet

JOIN_SPEC = {
    "kind": "join",
    "relations": ["R1", "R2"],
    "predicates": ["R1.A = R2.A"],
    "method": "basic_sketch",
    "budget": 24,
    "options": {},
}
RANGE_SPEC = {
    "kind": "range",
    "relation": "R1",
    "attribute": "A",
    "low": 10,
    "high": 30,
    "budget": 24,
    "options": {},
}
DOMAIN_SPEC = {"low": 0, "size": 48}


class ServeHarness:
    """Run a FleetServer on an event loop in a daemon thread."""

    def __init__(self, fleet, **server_options):
        import asyncio

        self.server = FleetServer(fleet, **server_options)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()
        asyncio.run_coroutine_threadsafe(self.server.start(), self.loop).result(10)
        self.address = self.server.address

    def close(self):
        import asyncio

        asyncio.run_coroutine_threadsafe(self.server.close(), self.loop).result(10)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10)
        self.loop.close()


@pytest.fixture
def harness():
    """A daemon over a small serial fleet with dead-lettering enabled."""
    fleet = ShardedStreamEngine(num_shards=2, seed=3)
    fleet.enable_dead_lettering()
    harness = ServeHarness(fleet)
    yield harness
    harness.close()
    fleet.close()


def connect(harness):
    return FleetClient(*harness.address)


class TestOps:
    def test_full_session_over_the_wire(self, harness):
        with connect(harness) as client:
            ping = client.ping()
            assert ping["num_shards"] == 2 and ping["up"] == [True, True]

            client.create_relation("R1", ["A"], [DOMAIN_SPEC])
            client.create_relation("R2", ["A"], [DOMAIN_SPEC])
            client.register("qj", JOIN_SPEC)
            client.register("qr", RANGE_SPEC)

            done = client.ingest("R1", [[1], [2], [15], [999]])
            assert done["rows"] == 4 and done["dead_lettered"] == 1
            client.ingest("R2", [[1], [15], [15]])

            join = client.query("qj")
            assert join["degraded"] is False and join["value"] >= 0
            rng = client.query("qr")
            # one row (15) falls in [10, 30]; the estimator lands near it
            assert rng["value"] == pytest.approx(1.0, abs=0.5)

            stats = client.stats()
            assert stats["relations"] == ["R1", "R2"]
            assert sorted(stats["queries"]) == ["qj", "qr"]
            assert len(stats["shards"]) == 2

            letters = client.check("deadletters")["deadletters"]
            assert letters["total"] == 1

    def test_bad_requests_answer_without_killing_the_session(self, harness):
        with connect(harness) as client:
            client._file.write(b"this is not json\n")
            client._file.flush()
            response = json.loads(client._file.readline())
            assert response["ok"] is False and "malformed JSON" in response["error"]

            response = client.request("warp_core_eject", id="r1")
            assert response["ok"] is False
            assert "unknown op" in response["error"]
            assert response["id"] == "r1"  # errors still echo the request id

            # the connection survived both
            assert client.ping()["ok"] is True

    def test_non_object_request_is_rejected(self, harness):
        with connect(harness) as client:
            client._file.write(b"[1, 2, 3]\n")
            client._file.flush()
            response = json.loads(client._file.readline())
            assert response["ok"] is False and "JSON object" in response["error"]

    def test_two_concurrent_clients_share_one_fleet(self, harness):
        with connect(harness) as one, connect(harness) as two:
            one.create_relation("R1", ["A"], [DOMAIN_SPEC])
            clients = harness.server.registry.get("repro_serve_clients")
            assert clients.value == 2

            errors = []

            def hammer(client, low):
                try:
                    for i in range(10):
                        client.ingest("R1", [[(low + i) % 48]])
                except Exception as exc:  # pragma: no cover - surfaced below
                    errors.append(exc)

            threads = [
                threading.Thread(target=hammer, args=(one, 0)),
                threading.Thread(target=hammer, args=(two, 20)),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
            assert not errors
            assert one.check("stats")["shards"] is not None
            assert two.ping()["ok"] is True


BOUNDED_SPEC = {
    "kind": "join",
    "relations": ["R1", "R2"],
    "predicates": ["R1.A = R2.A"],
    "method": "basic_sketch",
    "budget": 24,
    "options": {"bounds": True},
}


class TestBoundMetadata:
    """The `mode` field and `bound` reply block docs/BOUNDS.md promises."""

    def _setup(self, client):
        client.create_relation("R1", ["A"], [DOMAIN_SPEC])
        client.create_relation("R2", ["A"], [DOMAIN_SPEC])
        client.register("qb", BOUNDED_SPEC)
        for relation in ("R1", "R2"):
            client.ingest(relation, [[v % 48] for v in range(120)])

    def test_bounded_query_replies_carry_bound_metadata(self, harness):
        with connect(harness) as client:
            self._setup(client)
            answer = client.query("qb")
            upper = client.query("qb", mode="upper_bound")
            clamped = client.query("qb", mode="clamped")
            for reply in (answer, upper, clamped):
                assert set(reply["bound"]) == {
                    "upper_bound",
                    "clamped",
                    "clamp_fired",
                }
            assert upper["mode"] == "upper_bound"
            assert upper["value"] == answer["bound"]["upper_bound"]
            assert clamped["value"] == answer["bound"]["clamped"]
            assert clamped["value"] <= upper["value"]
            assert answer["bound"]["clamp_fired"] == (
                answer["value"] > upper["value"]
            )

    def test_unknown_mode_is_rejected_but_survivable(self, harness):
        with connect(harness) as client:
            self._setup(client)
            response = client.request("query", name="qb", mode="sideways")
            assert response["ok"] is False
            assert "unknown estimation mode" in response["error"]
            assert client.ping()["ok"] is True

    def test_mode_on_unbounded_query_is_rejected(self, harness):
        with connect(harness) as client:
            client.create_relation("R1", ["A"], [DOMAIN_SPEC])
            client.create_relation("R2", ["A"], [DOMAIN_SPEC])
            client.register("qj", JOIN_SPEC)
            response = client.request("query", name="qj", mode="upper_bound")
            assert response["ok"] is False
            assert "bounds=True" in response["error"]

    def test_partial_policy_refuses_bound_modes(self, harness):
        with connect(harness) as client:
            self._setup(client)
            response = client.request(
                "query", name="qb", policy="partial", mode="upper_bound"
            )
            assert response["ok"] is False
            assert "no sound bound" in response["error"]


class TestDegradation:
    @pytest.fixture
    def wounded(self):
        """A socket fleet that has permanently lost shard 1."""
        fleet = build_socket_fleet(max_restarts=0)
        for relation in ("R1", "R2"):
            fleet.ingest_batch(relation, [[v % 48] for v in range(60)])
        os.kill(fleet._executor.supervisor.pid(1), signal.SIGKILL)
        harness = ServeHarness(fleet)
        yield harness
        harness.close()
        fleet.close()

    def test_partial_policy_answers_flagged_and_scaled(self, wounded):
        with connect(wounded) as client:
            answer = client.query("q_basic_sketch", policy="partial")
            assert answer["degraded"] is True
            assert answer["missing_shards"] == [1]
            assert answer["surviving_shards"] == 2
            assert answer["total_shards"] == 3
            assert answer["value"] == pytest.approx(answer["raw_value"] * 3 / 2)

    def test_raise_policy_reports_the_outage(self, wounded):
        with connect(wounded) as client:
            response = client.request("query", name="q_basic_sketch")
            assert response["ok"] is False and response["degraded"] is True

    def test_stats_tolerate_the_down_shard(self, wounded):
        with connect(wounded) as client:
            stats = client.stats()
            assert stats["shards"][1] is None
            assert stats["shards"][0] is not None
            assert stats["health"]["up"] == [True, False, True]

    def test_a_process_fleet_pings_its_lost_shard_down(self):
        fleet = build_fleet(num_shards=2, executor="process")
        harness = None
        try:
            for relation in ("R1", "R2"):
                fleet.ingest_batch(relation, [[v % 48] for v in range(60)])
            os.kill(fleet._executor.supervisor.pid(1), signal.SIGKILL)
            harness = ServeHarness(fleet)
            with connect(harness) as client:
                response = client.request("query", name="q_basic_sketch")
                assert response["ok"] is False
                assert client.ping()["up"] == [True, False]
        finally:
            if harness is not None:
                harness.close()
            fleet.close()


class TestBackpressure:
    REQUESTS = 200
    ID_BYTES = 128 * 1024

    def test_slow_client_throttles_dispatch_without_growing_memory(self):
        """A client that stops reading suspends its own request stream.

        200 pipelined pings with 128 KiB ids mean ~25 MiB of responses —
        far beyond the 64 KiB write high-water mark plus kernel buffers.
        While the client refuses to read, the server must stop dispatching
        (drain() suspends that client's loop); once the client drains, all
        responses arrive, in order.
        """
        fleet = ShardedStreamEngine(num_shards=2, seed=3)
        harness = ServeHarness(
            fleet, write_high_water=64 * 1024, read_limit=512 * 1024
        )
        sock = socket.create_connection(harness.address, timeout=60)
        try:
            request = (
                json.dumps({"op": "ping", "id": "x" * self.ID_BYTES}).encode()
                + b"\n"
            )

            def write_all():
                for _ in range(self.REQUESTS):
                    sock.sendall(request)

            writer = threading.Thread(target=write_all, daemon=True)
            writer.start()

            # Let dispatch run until it stalls against the write buffer.
            server = harness.server
            previous = -1
            for _ in range(100):
                current = server.dispatched
                if current == previous and current > 0:
                    break
                previous = current
                time.sleep(0.05)
            assert 0 < server.dispatched < self.REQUESTS

            reader = sock.makefile("rb")
            responses = [json.loads(reader.readline()) for _ in range(self.REQUESTS)]
            writer.join(30)
            assert not writer.is_alive()
            assert server.dispatched == self.REQUESTS
            assert all(r["ok"] and len(r["id"]) == self.ID_BYTES for r in responses)
        finally:
            sock.close()
            harness.close()
            fleet.close()
