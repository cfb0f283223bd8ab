"""Engine overhead: what the system layer costs on top of raw synopses.

The ContinuousQueryEngine routes every stream operation through exact
state maintenance plus one observer per registered query.  This bench
measures per-operation cost as queries accumulate (0, 1, 4 cosine queries)
and asserts the dispatch overhead scales roughly linearly in the number of
observers — no quadratic surprises — and that a bare relation (exact
counts only) stays cheap.

Identical cosine queries share one synopsis, so those rows time one
observer.  ``test_seven_method_per_op_insert`` times a per-op
``engine.insert`` on an engine where every method has its own observer:
two relations over 1,024 values holding 4,096 uniform rows each, all seven
methods at budget 256 with ``bounds=True`` (the sample at p = 1), default
telemetry.  Run as a script, the file prints that figure, the best of five
1,000-op blocks in microseconds, so two trees compare in alternating
processes::

    PYTHONPATH=src python benchmarks/bench_engine_overhead.py
"""

import time

import numpy as np
import pytest

from repro.core.normalization import Domain
from repro.streams.engine import ContinuousQueryEngine
from repro.streams.queries import JoinQuery

N = 512
OPS = 400
BUDGET = 128

SEVEN_METHODS = (
    "cosine",
    "basic_sketch",
    "skimmed_sketch",
    "sample",
    "histogram",
    "wavelet",
    "partitioned_sketch",
)


def _engine_with_queries(num_queries: int) -> ContinuousQueryEngine:
    eng = ContinuousQueryEngine(seed=1)
    eng.create_relation("S1", ["A"], [Domain.of_size(N)])
    eng.create_relation("S2", ["A"], [Domain.of_size(N)])
    query = JoinQuery.chain(["S1", "S2"], ["A"])
    for i in range(num_queries):
        eng.register_query(f"q{i}", query, method="cosine", budget=BUDGET)
    return eng


def _ops_per_second(num_queries: int) -> float:
    eng = _engine_with_queries(num_queries)
    values = np.random.default_rng(0).integers(0, N, OPS)
    start = time.perf_counter()
    for v in values:
        eng.insert("S1", (int(v),))
    return OPS / (time.perf_counter() - start)


@pytest.mark.parametrize("num_queries", [0, 1, 4])
def test_engine_insert_overhead(benchmark, num_queries):
    benchmark.pedantic(_ops_per_second, args=(num_queries,), iterations=1, rounds=3)


def test_overhead_scales_linearly(benchmark, capsys):
    def sweep():
        return {q: _ops_per_second(q) for q in (0, 1, 2, 4, 8)}

    throughput = benchmark.pedantic(sweep, iterations=1, rounds=1)
    with capsys.disabled():
        print("\nengine insert throughput vs registered cosine queries:")
        for q, tput in throughput.items():
            print(f"  {q} queries: {tput:>10,.0f} ops/s")
    # Per-op cost should grow at most ~linearly with observers: going from
    # 1 to 8 queries must not cost more than ~8x + generous constant slack.
    assert throughput[8] > throughput[1] / 16
    # A bare relation (exact state only) stays in a high-throughput regime.
    assert throughput[0] > 5_000


def _seven_method_engine() -> ContinuousQueryEngine:
    eng = ContinuousQueryEngine(seed=1)
    rng = np.random.default_rng(0)
    for name in ("R1", "R2"):
        eng.create_relation(name, ["A"], [Domain.of_size(1024)])
        eng.ingest_batch(name, rng.integers(0, 1024, (4096, 1)))
    query = JoinQuery.chain(["R1", "R2"], ["A"])
    for method in SEVEN_METHODS:
        options = {"probability": 1.0} if method == "sample" else {}
        eng.register_query(f"q_{method}", query, method=method, budget=256, bounds=True, **options)
    return eng


def _per_op_insert_us(blocks: int = 5, ops: int = 1000) -> float:
    """Best of ``blocks`` per-op ``engine.insert`` blocks on the seven-method engine."""
    eng = _seven_method_engine()
    rng = np.random.default_rng(1)
    best = float("inf")
    for _ in range(blocks):
        values = [(int(v),) for v in rng.integers(0, 1024, ops)]
        start = time.perf_counter()
        for row in values:
            eng.insert("R1", row)
        best = min(best, (time.perf_counter() - start) / ops)
    return best * 1e6


def test_seven_method_per_op_insert(benchmark, capsys):
    per_op = benchmark.pedantic(_per_op_insert_us, iterations=1, rounds=1)
    with capsys.disabled():
        print(f"\nper-op engine.insert, seven methods with bounds: {per_op:.1f} us")


if __name__ == "__main__":
    print(f"{_per_op_insert_us():.1f}")
