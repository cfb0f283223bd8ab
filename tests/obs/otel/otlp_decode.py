"""OTLP/JSON decoders and payload validators for the encoder tests.

:func:`spans_from_otlp` / :func:`metrics_from_otlp` decode the payloads
:mod:`repro.obs.otel.encode` produces, and :func:`validate_traces_payload`
/ :func:`validate_metrics_payload` check conformance to the OTLP data
model; together they make the encoders round-trip-testable without an
OpenTelemetry installation.  Only tests use them, so they live here
rather than in the package.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro.obs.metrics import Counter, Gauge, LatencyHistogram, MetricFamily, MetricsRegistry
from repro.obs.otel.encode import _CUMULATIVE
from repro.obs.tracing import SpanEvent

__all__ = [
    "metrics_from_otlp",
    "spans_from_otlp",
    "validate_metrics_payload",
    "validate_traces_payload",
]


# --------------------------------------------------------------------- #
# decoding (round-trip support)
# --------------------------------------------------------------------- #


def _attrs_to_dict(attributes: Iterable[Mapping[str, Any]]) -> dict[str, object]:
    out: dict[str, object] = {}
    for entry in attributes:
        value = entry["value"]
        if "stringValue" in value:
            out[entry["key"]] = value["stringValue"]
        elif "boolValue" in value:
            out[entry["key"]] = bool(value["boolValue"])
        elif "intValue" in value:
            out[entry["key"]] = int(value["intValue"])
        else:
            out[entry["key"]] = float(value["doubleValue"])
    return out


def spans_from_otlp(
    payload: Mapping[str, Any], anchor_ns: int = 0
) -> list[tuple[dict[str, object], SpanEvent]]:
    """Decode a ``resourceSpans`` payload to ``(resource attrs, event)`` pairs.

    Passing the ``anchor_ns`` used at encode time maps timestamps back
    onto the original ``perf_counter`` clock, so a decode of an encode
    reproduces the source events up to nanosecond quantization.
    """
    out: list[tuple[dict[str, object], SpanEvent]] = []
    for resource_spans in payload.get("resourceSpans", []):
        resource = _attrs_to_dict(resource_spans.get("resource", {}).get("attributes", []))
        for scope_spans in resource_spans.get("scopeSpans", []):
            for span in scope_spans.get("spans", []):
                attrs = _attrs_to_dict(span.get("attributes", []))
                count = attrs.pop("count", 1)
                start_ns = int(span["startTimeUnixNano"])
                end_ns = int(span["endTimeUnixNano"])
                event = SpanEvent(
                    name=span["name"],
                    start=(start_ns - anchor_ns) / 1e9,
                    duration=(end_ns - start_ns) / 1e9,
                    count=int(count) if isinstance(count, (int, str)) else 1,
                    attrs={k: str(v) for k, v in attrs.items()},
                    trace_id=span["traceId"],
                    span_id=span["spanId"],
                    parent_span_id=span.get("parentSpanId", ""),
                )
                out.append((resource, event))
    return out


def metrics_from_otlp(payload: Mapping[str, Any]) -> MetricsRegistry:
    """Rebuild a :class:`MetricsRegistry` from a ``resourceMetrics`` payload.

    Labelled families come back with label names in sorted order (OTLP
    points carry attribute *pairs*, not the registry's declaration
    order); values, bucket layouts, and counts round-trip exactly.
    """
    registry = MetricsRegistry()
    for resource_metrics in payload.get("resourceMetrics", []):
        for scope_metrics in resource_metrics.get("scopeMetrics", []):
            for metric in scope_metrics.get("metrics", []):
                _decode_metric(registry, metric)
    return registry


def _decode_metric(registry: MetricsRegistry, metric: Mapping[str, Any]) -> None:
    name = metric["name"]
    description = metric.get("description", "")
    if "sum" in metric:
        for point in metric["sum"]["dataPoints"]:
            attrs = _attrs_to_dict(point.get("attributes", []))
            labelnames = tuple(sorted(str(k) for k in attrs))
            counter = registry.counter(name, description, labelnames=labelnames)
            child = (
                counter.labels(**{str(k): v for k, v in attrs.items()})
                if isinstance(counter, MetricFamily)
                else counter
            )
            assert isinstance(child, Counter)
            child.inc(_point_value(point))
    elif "gauge" in metric:
        for point in metric["gauge"]["dataPoints"]:
            attrs = _attrs_to_dict(point.get("attributes", []))
            labelnames = tuple(sorted(str(k) for k in attrs))
            gauge = registry.gauge(name, description, labelnames=labelnames)
            child = (
                gauge.labels(**{str(k): v for k, v in attrs.items()})
                if isinstance(gauge, MetricFamily)
                else gauge
            )
            assert isinstance(child, Gauge)
            child.set(_point_value(point))
    elif "histogram" in metric:
        for point in metric["histogram"]["dataPoints"]:
            attrs = _attrs_to_dict(point.get("attributes", []))
            labelnames = tuple(sorted(str(k) for k in attrs))
            bounds = [float(b) for b in point.get("explicitBounds", [])]
            hist = registry.histogram(name, description, labelnames=labelnames, buckets=bounds)
            child = (
                hist.labels(**{str(k): v for k, v in attrs.items()})
                if isinstance(hist, MetricFamily)
                else hist
            )
            assert isinstance(child, LatencyHistogram)
            counts = [int(c) for c in point.get("bucketCounts", [])]
            for i, bucket_count in enumerate(counts):
                child.bucket_counts[i] += bucket_count
            child._count += int(point["count"])
            child._sum += float(point.get("sum", 0.0))
            if "min" in point:
                child._min = min(child._min, float(point["min"]))
            if "max" in point:
                child._max = max(child._max, float(point["max"]))


def _point_value(point: Mapping[str, Any]) -> float:
    if "asInt" in point:
        return float(int(point["asInt"]))
    return float(point["asDouble"])


# --------------------------------------------------------------------- #
# validation
# --------------------------------------------------------------------- #


def _check_attributes(owner: str, attributes: object, problems: list[str]) -> None:
    if not isinstance(attributes, list):
        problems.append(f"{owner}: attributes must be a list")
        return
    for entry in attributes:
        if not isinstance(entry, Mapping) or "key" not in entry or "value" not in entry:
            problems.append(f"{owner}: attribute entries need 'key' and 'value'")
            continue
        value = entry["value"]
        if not isinstance(value, Mapping):
            problems.append(f"{owner}: attribute {entry['key']!r} value must be an AnyValue")
            continue
        typed = {"stringValue", "boolValue", "intValue", "doubleValue"} & set(value)
        if len(typed) != 1:
            problems.append(
                f"{owner}: attribute {entry['key']!r} must set exactly one AnyValue field"
            )


def _is_hex_id(value: object, width: int) -> bool:
    return (
        isinstance(value, str)
        and len(value) == width
        and all(c in "0123456789abcdef" for c in value)
        and value != "0" * width
    )


def _is_uint_string(value: object) -> bool:
    return isinstance(value, str) and value.isdigit()


def validate_traces_payload(payload: Mapping[str, Any]) -> list[str]:
    """Problems that would make an OTLP collector reject the payload.

    Checks the proto3 JSON conventions the encoder promises: hex span
    identity of the right widths, string-encoded uint64 timestamps in
    order, well-formed attribute lists.  Empty list means conformant.
    """
    problems: list[str] = []
    resource_spans = payload.get("resourceSpans")
    if not isinstance(resource_spans, list):
        return ["payload must have a 'resourceSpans' list"]
    for i, entry in enumerate(resource_spans):
        where = f"resourceSpans[{i}]"
        _check_attributes(where, entry.get("resource", {}).get("attributes", []), problems)
        scope_spans = entry.get("scopeSpans")
        if not isinstance(scope_spans, list) or not scope_spans:
            problems.append(f"{where}: needs a non-empty 'scopeSpans' list")
            continue
        for scope_entry in scope_spans:
            for j, span in enumerate(scope_entry.get("spans", [])):
                owner = f"{where}.spans[{j}]"
                if not span.get("name"):
                    problems.append(f"{owner}: span name must be non-empty")
                if not _is_hex_id(span.get("traceId"), 32):
                    problems.append(f"{owner}: traceId must be 32 hex chars, non-zero")
                if not _is_hex_id(span.get("spanId"), 16):
                    problems.append(f"{owner}: spanId must be 16 hex chars, non-zero")
                parent = span.get("parentSpanId", "")
                if parent and not _is_hex_id(parent, 16):
                    problems.append(f"{owner}: parentSpanId must be 16 hex chars when set")
                start, end = span.get("startTimeUnixNano"), span.get("endTimeUnixNano")
                if not (_is_uint_string(start) and _is_uint_string(end)):
                    problems.append(f"{owner}: span times must be uint64-as-string")
                elif int(start) > int(end):
                    problems.append(f"{owner}: startTimeUnixNano after endTimeUnixNano")
                _check_attributes(owner, span.get("attributes", []), problems)
    return problems


def _validate_number_points(owner: str, points: object, problems: list[str]) -> None:
    if not isinstance(points, list) or not points:
        problems.append(f"{owner}: needs a non-empty 'dataPoints' list")
        return
    for k, point in enumerate(points):
        where = f"{owner}.dataPoints[{k}]"
        typed = {"asInt", "asDouble"} & set(point)
        if len(typed) != 1:
            problems.append(f"{where}: must set exactly one of asInt/asDouble")
        elif "asInt" in point and not _is_int_string(point["asInt"]):
            problems.append(f"{where}: asInt must be an int64-as-string")
        if not _is_uint_string(point.get("timeUnixNano")):
            problems.append(f"{where}: timeUnixNano must be uint64-as-string")
        _check_attributes(where, point.get("attributes", []), problems)


def _is_int_string(value: object) -> bool:
    return isinstance(value, str) and (value.lstrip("-").isdigit())


def validate_metrics_payload(payload: Mapping[str, Any]) -> list[str]:
    """Problems that would make an OTLP collector reject the payload.

    Checks each metric declares exactly one data shape, sums are
    cumulative and monotonic (all the registry produces), and histogram
    points keep ``len(bucketCounts) == len(explicitBounds) + 1`` with
    bucket counts summing to ``count``.  Empty list means conformant.
    """
    problems: list[str] = []
    resource_metrics = payload.get("resourceMetrics")
    if not isinstance(resource_metrics, list):
        return ["payload must have a 'resourceMetrics' list"]
    for i, entry in enumerate(resource_metrics):
        where = f"resourceMetrics[{i}]"
        _check_attributes(where, entry.get("resource", {}).get("attributes", []), problems)
        for scope_entry in entry.get("scopeMetrics", []):
            for metric in scope_entry.get("metrics", []):
                name = metric.get("name") or "<unnamed>"
                owner = f"{where}.{name}"
                if not metric.get("name"):
                    problems.append(f"{owner}: metric name must be non-empty")
                shapes = {"sum", "gauge", "histogram"} & set(metric)
                if len(shapes) != 1:
                    problems.append(f"{owner}: must set exactly one of sum/gauge/histogram")
                    continue
                if "sum" in metric:
                    if metric["sum"].get("aggregationTemporality") != _CUMULATIVE:
                        problems.append(f"{owner}: sums must be cumulative")
                    if metric["sum"].get("isMonotonic") is not True:
                        problems.append(f"{owner}: counter sums must be monotonic")
                    _validate_number_points(owner, metric["sum"].get("dataPoints"), problems)
                elif "gauge" in metric:
                    _validate_number_points(owner, metric["gauge"].get("dataPoints"), problems)
                else:
                    _validate_histogram_points(
                        owner, metric["histogram"], problems
                    )
    return problems


def _validate_histogram_points(
    owner: str, histogram: Mapping[str, Any], problems: list[str]
) -> None:
    if histogram.get("aggregationTemporality") != _CUMULATIVE:
        problems.append(f"{owner}: histograms must be cumulative")
    points = histogram.get("dataPoints")
    if not isinstance(points, list) or not points:
        problems.append(f"{owner}: needs a non-empty 'dataPoints' list")
        return
    for k, point in enumerate(points):
        where = f"{owner}.dataPoints[{k}]"
        counts = point.get("bucketCounts", [])
        bounds = point.get("explicitBounds", [])
        if not all(_is_uint_string(c) for c in counts):
            problems.append(f"{where}: bucketCounts must be uint64-as-string")
            continue
        if len(counts) != len(bounds) + 1:
            problems.append(
                f"{where}: len(bucketCounts) must be len(explicitBounds) + 1 "
                f"({len(counts)} vs {len(bounds)} bounds)"
            )
        if list(bounds) != sorted(float(b) for b in bounds):
            problems.append(f"{where}: explicitBounds must be sorted ascending")
        if not _is_uint_string(point.get("count")):
            problems.append(f"{where}: count must be uint64-as-string")
        elif sum(int(c) for c in counts) != int(point["count"]):  # repro: noqa[REP004] ints
            problems.append(f"{where}: bucketCounts must sum to count")
        if not _is_uint_string(point.get("timeUnixNano")):
            problems.append(f"{where}: timeUnixNano must be uint64-as-string")
        _check_attributes(where, point.get("attributes", []), problems)
