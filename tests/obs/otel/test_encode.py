"""OTLP/JSON encoding: round-trips, proto3 conventions, validators."""

import json

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.otel.encode import (
    SCOPE_NAME,
    default_resource,
    encode_metrics,
    encode_span_groups,
    encode_spans,
    epoch_anchor_ns,
)
from repro.obs.tracing import SpanEvent, Tracer

from .otlp_decode import (
    metrics_from_otlp,
    spans_from_otlp,
    validate_metrics_payload,
    validate_traces_payload,
)


def make_events(n=3):
    """A batch of fully-identified span events from one tracer."""
    tracer = Tracer()
    for i in range(n):
        tracer.emit("ingest_batch", 0.002 * (i + 1), count=64, relation=f"R{i}")
    return tracer.drain()


class TestSpanEncoding:
    def test_payload_validates(self):
        payload = encode_spans(make_events())
        assert validate_traces_payload(payload) == []

    def test_json_serializable(self):
        payload = encode_spans(make_events())
        assert json.loads(json.dumps(payload)) == payload

    def test_round_trip_preserves_events(self):
        events = make_events()
        payload = encode_spans(events, anchor_ns=0)
        decoded = [event for _, event in spans_from_otlp(payload, anchor_ns=0)]
        assert len(decoded) == len(events)
        for original, back in zip(events, decoded):
            assert back.name == original.name
            assert back.count == original.count
            assert back.attrs == original.attrs
            assert back.trace_id == original.trace_id
            assert back.span_id == original.span_id
            assert back.parent_span_id == original.parent_span_id
            assert back.start == pytest.approx(original.start, abs=1e-8)
            assert back.duration == pytest.approx(original.duration, abs=1e-8)

    def test_ids_encoded_as_hex_strings(self):
        events = make_events(1)
        span = encode_spans(events)["resourceSpans"][0]["scopeSpans"][0]["spans"][0]
        assert span["traceId"] == events[0].trace_id
        assert span["spanId"] == events[0].span_id
        assert span["parentSpanId"] == events[0].parent_span_id
        assert len(span["traceId"]) == 32
        assert len(span["spanId"]) == 16

    def test_timestamps_are_uint64_strings_in_order(self):
        span = encode_spans(make_events(1))["resourceSpans"][0]["scopeSpans"][0]["spans"][0]
        start, end = span["startTimeUnixNano"], span["endTimeUnixNano"]
        assert isinstance(start, str) and start.isdigit()
        assert isinstance(end, str) and end.isdigit()
        assert int(start) <= int(end)

    def test_anchor_maps_monotonic_onto_epoch(self):
        event = SpanEvent(
            "estimate", start=10.0, duration=0.5,
            trace_id="ab" * 16, span_id="cd" * 8,
        )
        payload = encode_spans([event], anchor_ns=1_000_000_000)
        span = payload["resourceSpans"][0]["scopeSpans"][0]["spans"][0]
        assert span["startTimeUnixNano"] == str(1_000_000_000 + 10_000_000_000)
        assert span["endTimeUnixNano"] == str(1_000_000_000 + 10_500_000_000)

    def test_epoch_anchor_is_stable(self):
        first, second = epoch_anchor_ns(), epoch_anchor_ns()
        assert abs(first - second) < 50_000_000  # same clock pair, <50ms jitter

    def test_legacy_events_get_minted_identity(self):
        legacy = SpanEvent("ingest_batch", start=0.0, duration=0.001)
        payload = encode_spans([legacy])
        assert validate_traces_payload(payload) == []
        span = payload["resourceSpans"][0]["scopeSpans"][0]["spans"][0]
        assert len(span["traceId"]) == 32
        assert "parentSpanId" not in span

    def test_groups_become_per_resource_entries(self):
        groups = [
            ({"shard": "0"}, make_events(1)),
            ({"shard": "1"}, make_events(2)),
            ({"shard": "2"}, []),  # empty group omitted
        ]
        payload = encode_span_groups(groups)
        assert len(payload["resourceSpans"]) == 2
        decoded = spans_from_otlp(payload)
        shards = {resource["shard"] for resource, _ in decoded}
        assert shards == {"0", "1"}
        base = decoded[0][0]
        assert base["service.name"] == "repro"

    def test_scope_names_the_library(self):
        payload = encode_spans(make_events(1))
        scope = payload["resourceSpans"][0]["scopeSpans"][0]["scope"]
        assert scope["name"] == SCOPE_NAME
        assert scope["version"]

    def test_count_travels_as_int_attribute(self):
        span = encode_spans(make_events(1))["resourceSpans"][0]["scopeSpans"][0]["spans"][0]
        by_key = {entry["key"]: entry["value"] for entry in span["attributes"]}
        assert by_key["count"] == {"intValue": "64"}
        assert by_key["relation"] == {"stringValue": "R0"}


class TestTraceValidation:
    def test_flags_zero_trace_id(self):
        payload = encode_spans(make_events(1))
        span = payload["resourceSpans"][0]["scopeSpans"][0]["spans"][0]
        span["traceId"] = "0" * 32
        assert any("traceId" in p for p in validate_traces_payload(payload))

    def test_flags_short_span_id(self):
        payload = encode_spans(make_events(1))
        span = payload["resourceSpans"][0]["scopeSpans"][0]["spans"][0]
        span["spanId"] = "abc"
        assert any("spanId" in p for p in validate_traces_payload(payload))

    def test_flags_integer_timestamps(self):
        payload = encode_spans(make_events(1))
        span = payload["resourceSpans"][0]["scopeSpans"][0]["spans"][0]
        span["startTimeUnixNano"] = int(span["startTimeUnixNano"])
        assert any("uint64-as-string" in p for p in validate_traces_payload(payload))

    def test_flags_reversed_timestamps(self):
        payload = encode_spans(make_events(1))
        span = payload["resourceSpans"][0]["scopeSpans"][0]["spans"][0]
        span["startTimeUnixNano"], span["endTimeUnixNano"] = (
            span["endTimeUnixNano"],
            str(int(span["startTimeUnixNano"]) - 1),
        )
        assert any("after" in p for p in validate_traces_payload(payload))

    def test_flags_double_typed_attribute(self):
        payload = encode_spans(make_events(1))
        span = payload["resourceSpans"][0]["scopeSpans"][0]["spans"][0]
        span["attributes"][0]["value"] = {"stringValue": "x", "intValue": "1"}
        assert any("exactly one AnyValue" in p for p in validate_traces_payload(payload))

    def test_flags_missing_resource_spans(self):
        assert validate_traces_payload({}) == ["payload must have a 'resourceSpans' list"]


def make_registry():
    registry = MetricsRegistry()
    registry.counter("repro_test_ops_total", "ops").inc(41)
    registry.counter("repro_test_ops_total", "ops").inc(1)
    registry.gauge("repro_test_depth", "depth").set(2.5)
    family = registry.counter(
        "repro_test_by_relation_total", "per relation", labelnames=("relation",)
    )
    family.labels(relation="R1").inc(7)
    family.labels(relation="R2").inc(9)
    hist = registry.histogram(
        "repro_test_latency_seconds", "latency", buckets=(0.001, 0.01, 0.1)
    )
    for value in (0.0005, 0.004, 0.05, 2.0):
        hist.observe(value)
    return registry


class TestMetricEncoding:
    def test_payload_validates(self):
        assert validate_metrics_payload(encode_metrics(make_registry())) == []

    def test_json_serializable(self):
        payload = encode_metrics(make_registry())
        assert json.loads(json.dumps(payload)) == payload

    def test_round_trip_preserves_values(self):
        registry = make_registry()
        back = metrics_from_otlp(encode_metrics(registry))
        assert back.counter("repro_test_ops_total", "").value == 42
        assert back.gauge("repro_test_depth", "").value == 2.5
        family = back.counter("repro_test_by_relation_total", "", labelnames=("relation",))
        assert family.labels(relation="R1").value == 7
        assert family.labels(relation="R2").value == 9
        hist = back.histogram(
            "repro_test_latency_seconds", "", buckets=(0.001, 0.01, 0.1)
        )
        original = registry.get("repro_test_latency_seconds")
        assert hist.count == original.count
        assert hist.sum == pytest.approx(original.sum)
        assert hist.bucket_counts == original.bucket_counts
        assert hist.min == original.min
        assert hist.max == original.max

    def test_integral_values_use_as_int(self):
        registry = MetricsRegistry()
        registry.counter("repro_test_total", "t").inc(5)
        payload = encode_metrics(registry)
        metric = payload["resourceMetrics"][0]["scopeMetrics"][0]["metrics"][0]
        point = metric["sum"]["dataPoints"][0]
        assert point["asInt"] == "5"
        assert "asDouble" not in point

    def test_counter_sum_is_cumulative_monotonic(self):
        registry = MetricsRegistry()
        registry.counter("repro_test_total", "t").inc()
        metric = encode_metrics(registry)["resourceMetrics"][0]["scopeMetrics"][0]["metrics"][0]
        assert metric["sum"]["aggregationTemporality"] == 2
        assert metric["sum"]["isMonotonic"] is True

    def test_histogram_buckets_follow_proto_shape(self):
        registry = make_registry()
        payload = encode_metrics(registry)
        metrics = payload["resourceMetrics"][0]["scopeMetrics"][0]["metrics"]
        hist = next(m for m in metrics if m["name"] == "repro_test_latency_seconds")
        point = hist["histogram"]["dataPoints"][0]
        assert len(point["bucketCounts"]) == len(point["explicitBounds"]) + 1
        assert sum(int(c) for c in point["bucketCounts"]) == int(point["count"])
        assert point["min"] == 0.0005
        assert point["max"] == 2.0

    def test_empty_families_are_skipped(self):
        registry = MetricsRegistry()
        registry.counter("repro_test_by_q_total", "t", labelnames=("q",))
        payload = encode_metrics(registry)
        assert payload["resourceMetrics"][0]["scopeMetrics"][0]["metrics"] == []
        assert validate_metrics_payload(payload) == []

    def test_resource_attributes_override_defaults(self):
        payload = encode_metrics(make_registry(), resource={"service.name": "fleet"})
        attrs = payload["resourceMetrics"][0]["resource"]["attributes"]
        by_key = {e["key"]: e["value"] for e in attrs}
        assert by_key["service.name"] == {"stringValue": "fleet"}

    def test_default_resource_names_service(self):
        resource = default_resource()
        assert resource["service.name"] == "repro"
        assert resource["telemetry.sdk.language"] == "python"


class TestMetricValidation:
    def test_flags_delta_temporality(self):
        payload = encode_metrics(make_registry())
        metrics = payload["resourceMetrics"][0]["scopeMetrics"][0]["metrics"]
        counter = next(m for m in metrics if "sum" in m)
        counter["sum"]["aggregationTemporality"] = 1
        assert any("cumulative" in p for p in validate_metrics_payload(payload))

    def test_flags_bucket_count_mismatch(self):
        payload = encode_metrics(make_registry())
        metrics = payload["resourceMetrics"][0]["scopeMetrics"][0]["metrics"]
        hist = next(m for m in metrics if "histogram" in m)
        hist["histogram"]["dataPoints"][0]["bucketCounts"].append("0")
        assert any("len(explicitBounds)" in p for p in validate_metrics_payload(payload))

    def test_flags_counts_not_summing(self):
        payload = encode_metrics(make_registry())
        metrics = payload["resourceMetrics"][0]["scopeMetrics"][0]["metrics"]
        hist = next(m for m in metrics if "histogram" in m)
        hist["histogram"]["dataPoints"][0]["count"] = "999"
        assert any("sum to count" in p for p in validate_metrics_payload(payload))

    def test_flags_both_number_encodings(self):
        payload = encode_metrics(make_registry())
        metrics = payload["resourceMetrics"][0]["scopeMetrics"][0]["metrics"]
        counter = next(m for m in metrics if "sum" in m)
        counter["sum"]["dataPoints"][0]["asDouble"] = 1.0
        assert any("exactly one of asInt/asDouble" in p for p in validate_metrics_payload(payload))

    def test_flags_missing_resource_metrics(self):
        assert validate_metrics_payload({}) == ["payload must have a 'resourceMetrics' list"]


class TestAnyValueTyping:
    def test_bool_wins_over_int(self):
        payload = encode_spans(make_events(1), resource={"flag": True, "n": 3, "x": 1.5})
        resource, _ = spans_from_otlp(payload)[0]
        assert resource["flag"] is True
        assert resource["n"] == 3
        assert resource["x"] == 1.5
