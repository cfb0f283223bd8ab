"""Dropped telemetry hubs and push loops leave nothing behind."""

import gc
import tracemalloc

from repro.obs import Telemetry
from repro.obs.metrics import MetricsRegistry
from repro.obs.otel import OtelPushLoop, OtlpJsonFileExporter


def _churn(tmp_path, hubs, loops):
    for _ in range(hubs):
        Telemetry()
    for _ in range(loops):
        OtelPushLoop(OtlpJsonFileExporter(tmp_path / "otel.jsonl"), metrics=MetricsRegistry())


def test_dropped_hubs_and_push_loops_are_freed(tmp_path):
    _churn(tmp_path, hubs=10, loops=10)  # warm-up: first-use caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _churn(tmp_path, hubs=1000, loops=200)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 64 * 1024, f"{retained} bytes retained"
