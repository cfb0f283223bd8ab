"""Pure-stdlib OTLP/JSON encoding of repro.obs spans and metrics.

This module maps the in-memory observability model onto the OpenTelemetry
protocol's JSON representation (the proto3 JSON mapping of
``opentelemetry/proto/trace/v1`` and ``metrics/v1``) with nothing beyond
the standard library:

* :func:`encode_spans` / :func:`encode_span_groups` turn
  :class:`~repro.obs.tracing.SpanEvent` batches into a ``resourceSpans``
  payload — trace/span/parent ids verbatim, monotonic timestamps mapped
  onto the epoch nanosecond clock via :func:`epoch_anchor_ns`.
* :func:`encode_metrics` turns a
  :class:`~repro.obs.metrics.MetricsRegistry` into a ``resourceMetrics``
  payload: counters as cumulative monotonic ``sum``, gauges as ``gauge``,
  :class:`~repro.obs.metrics.LatencyHistogram` as ``histogram`` with
  explicit bounds; families become one data point per label combination.

The test suite carries the matching decoders and data-model validators
(``tests/obs/otel/otlp_decode.py``), so both encoders are
round-trip-tested without an OpenTelemetry installation.

Per the proto3 JSON mapping, 64-bit integers (timestamps, counts, bucket
counts) are encoded as decimal *strings* and ids as lowercase hex
strings; both encoders follow that convention exactly so a stock OTLP
collector accepts the output.
"""

from __future__ import annotations

import time
from typing import Any, Iterable, Mapping, Sequence

from ..metrics import Counter, Gauge, LatencyHistogram, MetricFamily, MetricsRegistry
from ..tracing import SpanEvent, TraceContext

__all__ = [
    "SCOPE_NAME",
    "default_resource",
    "epoch_anchor_ns",
    "encode_spans",
    "encode_span_groups",
    "encode_metrics",
]

#: Instrumentation-scope name stamped on every exported payload.
SCOPE_NAME = "repro.obs"

#: ``AggregationTemporality.CUMULATIVE`` — the only temporality the
#: registry produces (counters and histograms accumulate since start).
_CUMULATIVE = 2

#: ``SpanKind.INTERNAL`` — every engine span is in-process work.
_SPAN_KIND_INTERNAL = 1

#: Epoch-nanosecond start time stamped on cumulative metric points.
_PROCESS_START_NS = time.time_ns()


def _version() -> str:
    # Imported lazily: ``repro/__init__`` imports the obs package while
    # initializing, so a module-level ``from repro import __version__``
    # here would be circular.
    from repro import __version__

    return str(__version__)


def _scope() -> dict[str, Any]:
    return {"name": SCOPE_NAME, "version": _version()}


def default_resource() -> dict[str, object]:
    """Base resource attributes shared by every exported span and metric."""
    return {
        "service.name": "repro",
        "service.version": _version(),
        "telemetry.sdk.name": SCOPE_NAME,
        "telemetry.sdk.language": "python",
    }


def epoch_anchor_ns() -> int:
    """Offset mapping ``perf_counter()`` seconds onto epoch nanoseconds.

    ``perf_counter`` reads ``CLOCK_MONOTONIC`` (QPC on Windows), whose
    origin is per-*host*, not per-process — so one anchor computed in the
    coordinator is valid for span timestamps recorded by every forked
    shard worker on the machine.
    """
    return time.time_ns() - time.perf_counter_ns()


def _any_value(value: object) -> dict[str, Any]:
    """One OTLP ``AnyValue``: exactly one typed field set."""
    if isinstance(value, bool):
        return {"boolValue": value}
    if isinstance(value, int):
        return {"intValue": str(value)}
    if isinstance(value, float):
        return {"doubleValue": value}
    return {"stringValue": str(value)}


def _attributes(mapping: Mapping[str, object]) -> list[dict[str, Any]]:
    return [{"key": key, "value": _any_value(value)} for key, value in sorted(mapping.items())]


# --------------------------------------------------------------------- #
# spans
# --------------------------------------------------------------------- #


def _encode_span(event: SpanEvent, anchor_ns: int) -> dict[str, Any]:
    start_ns = anchor_ns + int(event.start * 1e9)
    end_ns = start_ns + max(0, int(event.duration * 1e9))
    if event.span_id:
        trace_id, span_id, parent = event.trace_id, event.span_id, event.parent_span_id
    else:
        # Pre-1.7.0 events carry no identity; mint one so the payload
        # still validates (such spans are roots of a synthetic trace).
        generated = TraceContext.generate()
        trace_id, span_id, parent = generated.trace_id, generated.span_id, ""
    attrs: dict[str, object] = dict(event.attrs)
    attrs["count"] = event.count
    span: dict[str, Any] = {
        "traceId": trace_id,
        "spanId": span_id,
        "name": event.name,
        "kind": _SPAN_KIND_INTERNAL,
        "startTimeUnixNano": str(start_ns),
        "endTimeUnixNano": str(end_ns),
        "attributes": _attributes(attrs),
    }
    if parent:
        span["parentSpanId"] = parent
    return span


def encode_span_groups(
    groups: Iterable[tuple[Mapping[str, object], Sequence[SpanEvent]]],
    base_resource: Mapping[str, object] | None = None,
    anchor_ns: int | None = None,
) -> dict[str, Any]:
    """Encode ``(resource attributes, events)`` groups as ``resourceSpans``.

    Each group becomes one ``resourceSpans`` entry whose resource merges
    ``base_resource`` (default :func:`default_resource`) with the group's
    own attributes — the fleet shape: one group per shard, ``shard=N``
    distinguishing them.  Groups with no events are omitted.
    """
    anchor = epoch_anchor_ns() if anchor_ns is None else anchor_ns
    base = default_resource() if base_resource is None else dict(base_resource)
    resource_spans: list[dict[str, Any]] = []
    for extra, events in groups:
        if not events:
            continue
        resource_spans.append(
            {
                "resource": {"attributes": _attributes({**base, **extra})},
                "scopeSpans": [
                    {
                        "scope": _scope(),
                        "spans": [_encode_span(event, anchor) for event in events],
                    }
                ],
            }
        )
    return {"resourceSpans": resource_spans}


def encode_spans(
    events: Sequence[SpanEvent],
    resource: Mapping[str, object] | None = None,
    anchor_ns: int | None = None,
) -> dict[str, Any]:
    """Encode one batch of events under one resource (single-engine shape)."""
    return encode_span_groups([(dict(resource or {}), events)], anchor_ns=anchor_ns)


# --------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------- #


def _number_point(
    value: float, attrs: Mapping[str, str], start_ns: int, now_ns: int
) -> dict[str, Any]:
    point: dict[str, Any] = {
        "startTimeUnixNano": str(start_ns),
        "timeUnixNano": str(now_ns),
    }
    if attrs:
        point["attributes"] = _attributes(attrs)
    if float(value).is_integer():
        point["asInt"] = str(int(value))
    else:
        point["asDouble"] = float(value)
    return point


def _histogram_point(
    hist: LatencyHistogram, attrs: Mapping[str, str], start_ns: int, now_ns: int
) -> dict[str, Any]:
    point: dict[str, Any] = {
        "startTimeUnixNano": str(start_ns),
        "timeUnixNano": str(now_ns),
        "count": str(hist.count),
        "sum": hist.sum,
        "bucketCounts": [str(c) for c in hist.bucket_counts],
        "explicitBounds": list(hist.bounds),
    }
    if attrs:
        point["attributes"] = _attributes(attrs)
    if hist.count:
        point["min"] = hist.min
        point["max"] = hist.max
    return point


def _metric_children(
    metric: object,
) -> tuple[str, str, list[tuple[dict[str, str], object]]]:
    """Flatten a metric or family to ``(kind, help, [(attrs, child)])``."""
    if isinstance(metric, MetricFamily):
        children: list[tuple[dict[str, str], object]] = [
            (dict(zip(metric.labelnames, values)), child) for values, child in metric.items()
        ]
        return metric.kind, metric.help, children
    kind = getattr(metric, "kind", "")
    help_text = getattr(metric, "help", "")
    return str(kind), str(help_text), [({}, metric)]


def _encode_metric(
    name: str, metric: object, start_ns: int, now_ns: int
) -> dict[str, Any] | None:
    kind, help_text, children = _metric_children(metric)
    out: dict[str, Any] = {"name": name}
    if help_text:
        out["description"] = help_text
    if kind == "histogram":
        points: list[dict[str, Any]] = [
            _histogram_point(child, attrs, start_ns, now_ns)
            for attrs, child in children
            if isinstance(child, LatencyHistogram)
        ]
        if not points:
            return None
        out["histogram"] = {"aggregationTemporality": _CUMULATIVE, "dataPoints": points}
        return out
    points = [
        _number_point(child.value, attrs, start_ns, now_ns)
        for attrs, child in children
        if isinstance(child, (Counter, Gauge))
    ]
    if not points:
        return None
    if kind == "counter":
        out["sum"] = {
            "aggregationTemporality": _CUMULATIVE,
            "isMonotonic": True,
            "dataPoints": points,
        }
    else:
        out["gauge"] = {"dataPoints": points}
    return out


def encode_metrics(
    registry: MetricsRegistry,
    resource: Mapping[str, object] | None = None,
    start_ns: int | None = None,
    now_ns: int | None = None,
) -> dict[str, Any]:
    """Encode every registry family as one ``resourceMetrics`` payload.

    Counters map to cumulative monotonic sums, gauges to gauges,
    histograms to explicit-bounds histogram points; a labelled family
    contributes one data point per label combination, the label pairs as
    point attributes.  Families with no children yet are skipped (a data
    point requires a value).
    """
    now = time.time_ns() if now_ns is None else now_ns
    start = _PROCESS_START_NS if start_ns is None else start_ns
    encoded = [
        _encode_metric(name, metric, start, now) for name, metric in registry.collect()
    ]
    metrics = [m for m in encoded if m is not None]
    base = default_resource() if resource is None else dict(resource)
    return {
        "resourceMetrics": [
            {
                "resource": {"attributes": _attributes(base)},
                "scopeMetrics": [{"scope": _scope(), "metrics": metrics}],
            }
        ]
    }
