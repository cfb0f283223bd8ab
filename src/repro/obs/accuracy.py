"""Online estimate-vs-exact accuracy tracking.

The paper's entire evaluation (Figures 3-20) is relative error of the
streaming estimate against the exact join size, measured offline after
the fact.  :class:`AccuracyTracker` turns that into a live runtime
signal: at a configurable ingest cadence it calls ``engine.answer(q)``
and ``engine.exact_answer(q)`` for each tracked query and folds the
relative error into streaming aggregates — sample count, running mean,
last observed value, and p50/p95 via the fixed-bucket histogram
primitive (:data:`~repro.obs.metrics.RELATIVE_ERROR_BUCKETS`).

Exact answers are affordable here for the same reason they are in the
experiments: reproduction-scale relations keep their exact frequency
tensors (``StreamRelation.counts``).  They are still the expensive part
— a full tensor contraction per query — which is why sampling is
cadence-based (every ``every_ops`` ingested operations) rather than
per-tuple.  Between cadence points the tracker costs one attribute read
and one integer comparison.
"""

from __future__ import annotations

import math
import weakref
from time import perf_counter
from typing import TYPE_CHECKING, Mapping, Sequence, cast

from .metrics import (
    RELATIVE_ERROR_BUCKETS,
    Counter,
    LatencyHistogram,
    MetricFamily,
    MetricsRegistry,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..streams.engine import ContinuousQueryEngine

__all__ = ["AccuracyTracker", "relative_error_of"]


def relative_error_of(estimate: float, exact: float) -> float:
    """``|estimate - exact| / max(|exact|, 1)`` — finite even at exact=0."""
    return abs(estimate - exact) / max(abs(exact), 1.0)


class AccuracyTracker:
    """Streaming relative-error aggregates for an engine's queries.

    ``queries=None`` tracks every query registered on the engine *at each
    sampling instant*, so queries registered mid-stream are picked up
    automatically; pass an explicit sequence to pin the set.  Aggregates
    live in the engine's metrics registry (``repro_accuracy_*``) so
    exporters see them alongside the ingest counters.
    """

    def __init__(
        self,
        engine: "ContinuousQueryEngine",
        every_ops: int = 1000,
        queries: Sequence[str] | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if every_ops < 1:
            raise ValueError("every_ops must be >= 1")
        # Weak: the engine holds its tracker, and a strong reference back
        # would keep a dropped engine alive until the cyclic collector ran.
        self._engine = weakref.ref(engine)
        self.every_ops = every_ops
        self.queries = tuple(queries) if queries is not None else None
        self.registry = registry if registry is not None else MetricsRegistry()
        self._error_hist = cast(
            MetricFamily,
            self.registry.histogram(
                "repro_accuracy_relative_error",
                "Streaming relative error of answer() vs exact_answer(), per query.",
                labelnames=("query",),
                buckets=RELATIVE_ERROR_BUCKETS,
            ),
        )
        self._samples = cast(
            MetricFamily,
            self.registry.counter(
                "repro_accuracy_samples_total",
                "Accuracy samples taken, per query.",
                labelnames=("query",),
            ),
        )
        self._sample_time = cast(
            Counter,
            self.registry.counter(
                "repro_accuracy_sampling_seconds_total",
                "Seconds spent computing accuracy samples (estimate + exact).",
            ),
        )
        self._last_error: dict[str, float] = {}
        self._last_sampled_at = 0

    @property
    def engine(self) -> "ContinuousQueryEngine":
        """The tracked engine; ``ReferenceError`` once it has been freed."""
        engine = self._engine()
        if engine is None:
            raise ReferenceError("the tracked engine has been freed")
        return engine

    # ------------------------------------------------------------------ #
    # sampling
    # ------------------------------------------------------------------ #

    def _tracked_queries(self) -> tuple[str, ...]:
        if self.queries is not None:
            return self.queries
        return tuple(self.engine._queries)

    def maybe_sample(self) -> dict[str, float] | None:
        """Sample iff ``every_ops`` operations flowed since the last sample.

        Called by the engine after every ingest entry point; the fast path
        (cadence not reached) is one counter read and one comparison.
        """
        ingested = self.engine.stats().tuples_ingested
        if ingested - self._last_sampled_at < self.every_ops:
            return None
        return self.sample_now()

    def sample_now(self) -> dict[str, float]:
        """Compare estimate vs exact for every tracked query, now.

        Queries that cannot be answered yet — e.g. a join whose other
        relation has not received data, leaving its synopsis empty — are
        skipped this round rather than letting the error escape into the
        caller's ingest path; they are picked up at the next cadence
        point once answerable.
        """
        start = perf_counter()
        errors: dict[str, float] = {}
        for name in self._tracked_queries():
            try:
                estimate = self.engine.answer(name)
            except ValueError:
                continue
            exact = self.engine.exact_answer(name)
            error = relative_error_of(estimate, exact)
            errors[name] = error
            cast(LatencyHistogram, self._error_hist.labels(query=name)).observe(error)
            cast(Counter, self._samples.labels(query=name)).inc()
            self._last_error[name] = error
        self._last_sampled_at = self.engine.stats().tuples_ingested
        self._sample_time.inc(perf_counter() - start)
        return errors

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #

    def report(self) -> dict[str, dict[str, float]]:
        """Per-query aggregates: samples, last/mean/p50/p95 relative error."""
        out: dict[str, dict[str, float]] = {}
        for (query,), hist in self._error_hist.items():
            assert isinstance(hist, LatencyHistogram)
            if hist.count == 0:
                continue
            out[query] = {
                "samples": hist.count,
                "last": self._last_error.get(query, math.nan),
                "mean": hist.mean,
                "p50": hist.percentile(50),
                "p95": hist.percentile(95),
            }
        return out

    def summary(self) -> str:
        """Human-readable accuracy table (one line per tracked query)."""
        report = self.report()
        if not report:
            return "accuracy: no samples yet"
        width = max(len("query"), *(len(q) for q in report))
        lines = ["streaming relative error (estimate vs exact):"]
        lines.append(
            f"  {'query':<{width}}  {'samples':>8}  {'last':>9}  "
            f"{'mean':>9}  {'p50':>9}  {'p95':>9}"
        )
        for query in sorted(report):
            row = report[query]
            lines.append(
                f"  {query:<{width}}  {row['samples']:>8,}  "
                f"{row['last'] * 100:>8.3f}%  {row['mean'] * 100:>8.3f}%  "
                f"{row['p50'] * 100:>8.3f}%  {row['p95'] * 100:>8.3f}%"
            )
        return "\n".join(lines)

    def as_dict(self) -> Mapping[str, object]:
        """JSON-compatible snapshot (cadence, per-query aggregates)."""
        return {
            "every_ops": self.every_ops,
            "sampling_seconds": self._sample_time.value,
            "queries": self.report(),
        }

    def reset(self) -> None:
        """Zero the aggregates (the tracked-query configuration stays)."""
        self._error_hist.reset()
        self._samples.reset()
        self._sample_time.reset()
        self._last_error.clear()
        self._last_sampled_at = 0
