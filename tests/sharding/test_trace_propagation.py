"""Distributed tracing across the shard boundary.

The acceptance shape: one coordinator trace per fleet operation, with
every shard's engine spans carrying the coordinator's trace id and
parenting under the coordinator span that fanned them out — including
across real process boundaries.
"""

import numpy as np
import pytest

from repro.core.normalization import Domain
from repro.obs.otel import encode_span_groups
from repro.sharding import ShardedStreamEngine
from repro.streams import JoinQuery

from ..obs.otel.otlp_decode import validate_traces_payload

EXECUTORS = ["serial", "thread", "process"]


def make_fleet(executor, num_shards=3):
    fleet = ShardedStreamEngine(num_shards=num_shards, seed=0, executor=executor)
    domain = Domain.of_size(32)
    fleet.create_relation("R1", ["A"], [domain])
    fleet.create_relation("R2", ["A"], [domain])
    query = JoinQuery.parse(["R1", "R2"], ["R1.A = R2.A"])
    fleet.register_query("q", query, method="cosine", budget=16)
    return fleet


def spans_by_shard(groups):
    return {resource["shard"]: list(events) for resource, events in groups}


@pytest.mark.parametrize("executor", EXECUTORS)
class TestFleetTracePropagation:
    def test_shard_ingest_spans_join_coordinator_trace(self, executor):
        with make_fleet(executor) as fleet:
            rows = np.arange(64, dtype=np.int64)[:, None] % 32
            fleet.ingest_batch("R1", rows)
            by_shard = spans_by_shard(fleet.drain_spans())
        (coordinator_span,) = by_shard.pop("coordinator")
        assert coordinator_span.name == "ingest_batch"
        assert len(by_shard) >= 2  # 64 keys over 3 shards: several non-empty
        for shard, events in by_shard.items():
            batch_events = [e for e in events if e.name == "ingest_batch"]
            assert batch_events, f"shard {shard} recorded no ingest span"
            for event in events:
                assert event.trace_id == coordinator_span.trace_id
                assert event.parent_span_id == coordinator_span.span_id

    def test_estimate_spans_join_coordinator_trace(self, executor):
        with make_fleet(executor) as fleet:
            rows = np.arange(32, dtype=np.int64)[:, None] % 32
            fleet.ingest_batch("R1", rows)
            fleet.ingest_batch("R2", rows)
            fleet.drain_spans()  # discard the ingest traces
            fleet.answer("q")
            by_shard = spans_by_shard(fleet.drain_spans())
        (estimate_span,) = by_shard.pop("coordinator")
        assert estimate_span.name == "estimate"
        assert estimate_span.attrs == {"query": "q", "method": "cosine"}
        assert by_shard  # every answering shard traced under the fan-out
        for events in by_shard.values():
            (event,) = [e for e in events if e.name == "estimate"]
            assert event.trace_id == estimate_span.trace_id
            assert event.parent_span_id == estimate_span.span_id

    def test_each_operation_is_its_own_span_same_trace(self, executor):
        with make_fleet(executor) as fleet:
            rows = np.arange(32, dtype=np.int64)[:, None] % 32
            fleet.ingest_batch("R1", rows)
            fleet.ingest_batch("R2", rows)
            by_shard = spans_by_shard(fleet.drain_spans())
        first, second = by_shard["coordinator"]
        assert first.trace_id == second.trace_id  # one tracer, one fleet trace
        assert first.span_id != second.span_id
        for shard, events in by_shard.items():
            if shard == "coordinator":
                continue
            parents = {e.parent_span_id for e in events if e.name == "ingest_batch"}
            assert parents <= {first.span_id, second.span_id}

    def test_drained_groups_export_as_valid_otlp(self, executor):
        with make_fleet(executor) as fleet:
            rows = np.arange(64, dtype=np.int64)[:, None] % 32
            fleet.ingest_batch("R1", rows)
            groups = fleet.drain_spans()
        payload = encode_span_groups(groups)
        assert validate_traces_payload(payload) == []
        assert len(payload["resourceSpans"]) == len(groups)

    def test_drain_delivers_each_span_once(self, executor):
        with make_fleet(executor) as fleet:
            rows = np.arange(64, dtype=np.int64)[:, None] % 32
            fleet.ingest_batch("R1", rows)
            first = fleet.drain_spans()
            second = fleet.drain_spans()
        assert first and second == []


class TestUntracedFleet:
    def test_telemetry_off_drains_nothing(self):
        fleet = ShardedStreamEngine(num_shards=2, seed=0, telemetry=False)
        try:
            domain = Domain.of_size(8)
            fleet.create_relation("R1", ["A"], [domain])
            fleet.ingest_batch("R1", np.zeros((4, 1), dtype=np.int64))
            assert fleet.tracer is None
            assert fleet.drain_spans() == []
        finally:
            fleet.close()
