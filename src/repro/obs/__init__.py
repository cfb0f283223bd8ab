"""Observability for the streaming estimation engine.

``repro.obs`` makes the system measure in production exactly what the
paper measures in benchmarks: ingest/estimate counters and latency
distributions (:mod:`~repro.obs.metrics`), structured span events over a
bounded ring buffer (:mod:`~repro.obs.tracing`), online
estimate-vs-exact relative error (:mod:`~repro.obs.accuracy`), and
export paths — Prometheus text, JSONL snapshots, a live text dashboard
(:mod:`~repro.obs.exporters`), OTLP/JSON traces and metrics
(:mod:`~repro.obs.otel`) — all bundled per engine by
:class:`~repro.obs.telemetry.Telemetry`.

Quickstart::

    from repro import Domain, JoinQuery, StreamEngine
    from repro.obs import prometheus_text

    engine = StreamEngine()                      # telemetry on by default
    ...                                          # relations, queries, ingest
    tracker = engine.track_accuracy(every_ops=5000)
    print(engine.stats().summary())              # counters + latency
    print(tracker.summary())                     # streaming relative error
    print(prometheus_text(engine.telemetry.registry))   # /metrics payload

:class:`~repro.obs.server.MetricsServer` is imported on first use: it
loads ``http.server`` (and with it ``email``, ``ssl`` and
``mimetypes``), which a process that serves no ``/metrics`` never needs.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports
from .accuracy import AccuracyTracker, relative_error_of
from .exporters import JsonlSnapshotWriter, prometheus_text, render_dashboard
from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    RELATIVE_ERROR_BUCKETS,
    Counter,
    Gauge,
    LatencyHistogram,
    MetricFamily,
    MetricsRegistry,
    catalog_mismatches,
)
from .telemetry import Telemetry
from .tracing import DEFAULT_TRACE_CAPACITY, SpanEvent, TraceContext, Tracer

if TYPE_CHECKING:
    from .server import MetricsServer

__getattr__ = lazy_exports(__name__, {"MetricsServer": ".server"})

__all__ = [
    "AccuracyTracker",
    "relative_error_of",
    "JsonlSnapshotWriter",
    "prometheus_text",
    "render_dashboard",
    "Counter",
    "Gauge",
    "LatencyHistogram",
    "MetricFamily",
    "MetricsRegistry",
    "MetricsServer",
    "catalog_mismatches",
    "DEFAULT_LATENCY_BUCKETS",
    "RELATIVE_ERROR_BUCKETS",
    "Telemetry",
    "SpanEvent",
    "TraceContext",
    "Tracer",
    "DEFAULT_TRACE_CAPACITY",
]
