"""The per-engine telemetry hub: one registry, one tracer, one switch.

:class:`Telemetry` bundles what one
:class:`~repro.streams.engine.ContinuousQueryEngine` needs to observe
itself: a :class:`~repro.obs.metrics.MetricsRegistry` (counters, gauges,
latency histograms), a :class:`~repro.obs.tracing.Tracer` (bounded span
ring), and the master ``enabled`` flag.

The flag is structural, not checked per event: a disabled hub hands the
engine ``tracer = None`` and makes the engine leave ``relation.stats``
unset, so the ingest hot path is byte-for-byte the uninstrumented one
(a single ``is None`` branch).  ``benchmarks/bench_telemetry_overhead.py``
holds the enabled path to < 10% overhead over this disabled baseline.
"""

from __future__ import annotations

from .metrics import MetricsRegistry
from .tracing import DEFAULT_TRACE_CAPACITY, Tracer

__all__ = ["Telemetry"]


class Telemetry:
    """Registry + tracer + on/off switch for one engine.

    ``enabled=False`` disables everything (metrics and tracing);
    ``tracing=False`` keeps metrics but skips span recording.  Pass an
    existing ``registry`` to aggregate several engines into one export
    surface.  ``trace_sample_every=N`` records ~1 in ``N`` hot-path spans
    (see :class:`~repro.obs.tracing.Tracer`); ``None`` records all.
    """

    def __init__(
        self,
        enabled: bool = True,
        tracing: bool = True,
        trace_capacity: int = DEFAULT_TRACE_CAPACITY,
        trace_sample_every: int | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.enabled = enabled
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer: Tracer | None = (
            Tracer(capacity=trace_capacity, sample_every=trace_sample_every)
            if (enabled and tracing)
            else None
        )

    @classmethod
    def disabled(cls) -> "Telemetry":
        """A hub that records nothing (the zero-overhead baseline)."""
        return cls(enabled=False, tracing=False)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "enabled" if self.enabled else "disabled"
        return f"Telemetry({state}, metrics={len(self.registry)})"
