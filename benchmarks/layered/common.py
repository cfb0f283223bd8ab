"""Paths, the metric tables and small statistics.

Shared by the driver (``run.py``), the workload child (``workloads.py``),
the comparison tool (``compare.py``) and the tests.  Nothing here imports
the program under test, so the driver can report a missing ``src/`` tree
as a clean harness error.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Sequence

import numpy as np

HERE = Path(__file__).resolve().parent
#: Root of the checkout the benchmark runs in (``BENCHMARK.json`` lives here).
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Scratch space for checkpoints and daemon logs; removed after each run.
WORK = HERE / ".work"

#: End-to-end metrics that ``BENCHMARK.json`` cannot carry, with the same
#: keys.  Its ``end_to_end`` list may hold only metrics that every workload
#: reports as a non-zero number whose spread across seeds stays inside the
#: bound; each of these breaks that rule on some workload (README.md gives
#: the measured reason for each).  ``compare.py`` gates them with the rest.
#: A bound of 0 means any increase.
EXTRA_END_TO_END: list[dict[str, Any]] = [
    {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.10},
    {"name": "ingest_tps", "unit": "tuples/s", "better": "higher", "bound": 0.10},
    {"name": "ingest_p50_ms", "unit": "ms", "better": "lower", "bound": 0.10},
    {"name": "ingest_p90_ms", "unit": "ms", "better": "lower", "bound": 0.10},
    {"name": "answer_p50_us", "unit": "us", "better": "lower", "bound": 0.10},
    {"name": "answer_p99_us", "unit": "us", "better": "lower", "bound": 0.10},
    {"name": "checkpoint_p50_ms", "unit": "ms", "better": "lower", "bound": 0.10},
    {"name": "failed_ops_frac", "unit": "ratio", "better": "lower", "bound": 0.0},
    {"name": "rel_error_p50", "unit": "ratio", "better": "lower", "bound": 0.10},
    {"name": "state_bytes", "unit": "bytes", "better": "lower", "bound": 0.02},
]
#: ``compare.py`` lets ``setup_s`` worsen by this share or by ``SETUP_FLOOR_S``
#: seconds, whichever is larger.  Its bound in ``BENCHMARK.json`` is wider:
#: set-up times follow the host's slow phases from one set of runs to the next.
SETUP_BOUND = 0.10
SETUP_FLOOR_S = 0.020


def load_benchmark() -> dict[str, Any]:
    """The parsed ``BENCHMARK.json`` (metric names, units, bounds)."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_table(trace: bool) -> list[dict[str, Any]]:
    """The metrics a run's result line reports: end-to-end, or per-layer when traced."""
    return load_benchmark()["per_layer" if trace else "end_to_end"]


def end_to_end_table() -> list[dict[str, Any]]:
    """Every end-to-end metric: ``BENCHMARK.json``'s, then :data:`EXTRA_END_TO_END`."""
    return [*metric_table(False), *EXTRA_END_TO_END]


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (numpy's linear rule); 0.0 for no samples."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` by the same rule as :func:`percentile`."""
    if not len(values):
        return 0.0, 0.0, 0.0
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return float(q1), float(median), float(q3)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0.0 if median is 0)."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0
