"""Serve-path overhead: the supervised socket fleet vs in-process sharding.

Moving shards out of process buys crash isolation (SIGKILL a worker,
answers are unchanged) at the price of pickled command frames over a
socketpair per worker.  This bench prices that trade on the serve path —
batched ingest interleaved with query answering, the exact op mix the
``repro-experiments serve`` daemon dispatches — and enforces the fleet
promise: the socket executor costs at most 15% wall-clock over the same
workload on in-process serial sharding.  The supervisor's scatter
writes every shard's frame before it reads a reply, so the workers'
synopsis updates overlap while the coordinator waits, which is why
batched commands keep the ratio small even though every frame is
pickled twice.

Timing noise on shared CI runners is real, so the assertion takes the
*best* overhead across several interleaved rounds: the claim is about
the code, not about one noisy measurement.

Runnable standalone for CI smoke checks::

    python benchmarks/bench_fleet_overhead.py --smoke [--json out.json]
"""

import time

import numpy as np

from repro.core.normalization import Domain
from repro.sharding import ShardedStreamEngine
from repro.streams import JoinQuery

DOMAIN = 2_000
BATCH = 2_048
BUDGET = 200
NUM_SHARDS = 2
QUERY_EVERY = 4  # batches between query rounds on the serve path
OVERHEAD_CEILING = 0.15  # socket fleet may cost at most 15% extra
ROUNDS = 5
METHODS = ("cosine", "basic_sketch", "sample")


def _build_fleet(executor) -> ShardedStreamEngine:
    fleet = ShardedStreamEngine(num_shards=NUM_SHARDS, seed=0, executor=executor)
    domain = Domain.of_size(DOMAIN)
    fleet.create_relation("R1", ["A"], [domain])
    fleet.create_relation("R2", ["A"], [domain])
    query = JoinQuery.parse(["R1", "R2"], ["R1.A = R2.A"])
    for method in METHODS:
        options = {"probability": 0.1} if method == "sample" else {}
        fleet.register_query(
            f"q_{method}", query, method=method, budget=BUDGET, **options
        )
    return fleet


def _serve_path_seconds(tuples: int, executor) -> tuple[float, int]:
    """(wall-clock seconds, queries answered) for one ingest+query run."""
    fleet = _build_fleet(executor)
    rows = ((np.random.default_rng(0).zipf(1.3, size=tuples) - 1) % DOMAIN)[:, None]
    try:
        batch_number = 0
        queries = 0
        start = time.perf_counter()
        # R1/R2 interleaved per batch, so both sides of the join have
        # state by the time the first query round fires.
        for lo in range(0, tuples, BATCH):
            for name in ("R1", "R2"):
                fleet.ingest_batch(name, rows[lo : lo + BATCH])
                batch_number += 1
                if batch_number % QUERY_EVERY == 0:
                    for method in METHODS:
                        fleet.answer(f"q_{method}")
                        queries += 1
        elapsed = time.perf_counter() - start
    finally:
        fleet.close()
    return elapsed, queries


def overhead_table(tuples: int = 32_768, rounds: int = ROUNDS) -> dict:
    """Socket-vs-serial serve-path timings, interleaved; best-round overhead."""
    from repro.fleet import SocketExecutor

    serial_times, socket_times, overheads = [], [], []
    queries = 0
    for _ in range(rounds):
        serial, queries = _serve_path_seconds(tuples, "serial")
        socket, _ = _serve_path_seconds(tuples, SocketExecutor())
        serial_times.append(serial)
        socket_times.append(socket)
        overheads.append(socket / serial - 1.0)
    return {
        "tuples_per_relation": tuples,
        "batch": BATCH,
        "num_shards": NUM_SHARDS,
        "rounds": rounds,
        "queries_per_round": queries,
        "serial_seconds": serial_times,
        "socket_seconds": socket_times,
        "serial_tps_best": 2 * tuples / min(serial_times),
        "socket_tps_best": 2 * tuples / min(socket_times),
        "overhead_per_round": overheads,
        "overhead_best": min(overheads),
        "overhead_ceiling": OVERHEAD_CEILING,
    }


def _print_table(table: dict) -> None:
    tuples = table["tuples_per_relation"]
    print(
        f"serve path over 2 x {tuples:,} tuples (batch {table['batch']},"
        f" {table['num_shards']} shards, {table['queries_per_round']}"
        f" queries/round), {table['rounds']} rounds:"
    )
    print(f"  in-process serial   {table['serial_tps_best']:>12,.0f} tuples/s (best)")
    print(f"  socket fleet        {table['socket_tps_best']:>12,.0f} tuples/s (best)")
    rounds = ", ".join(f"{o * 100:+.1f}%" for o in table["overhead_per_round"])
    print(f"  overhead per round  {rounds}")
    print(
        f"  best-round overhead {table['overhead_best'] * 100:+.2f}%"
        f"  (ceiling {table['overhead_ceiling'] * 100:.0f}%)"
    )


def test_socket_fleet_overhead_under_ceiling(benchmark, capsys):
    """The supervised socket fleet must cost < 15% over in-process sharding."""
    table = benchmark.pedantic(
        lambda: overhead_table(tuples=16_384, rounds=3), iterations=1, rounds=1
    )
    with capsys.disabled():
        print()
        _print_table(table)
    assert table["overhead_best"] < OVERHEAD_CEILING


def test_bench_workloads_answer_identically():
    """The two benched configurations compute the same estimates."""
    from repro.fleet import SocketExecutor

    rows = ((np.random.default_rng(0).zipf(1.3, size=2 * BATCH) - 1) % DOMAIN)[:, None]
    serial = _build_fleet("serial")
    socket = _build_fleet(SocketExecutor())
    try:
        for name in ("R1", "R2"):
            serial.ingest_batch(name, rows)
            socket.ingest_batch(name, rows)
        assert socket.answers() == serial.answers()
    finally:
        socket.close()
        serial.close()


def main(argv=None) -> int:
    """Standalone entry point: fleet overhead smoke benchmark for CI."""
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="small, CI-sized workload")
    parser.add_argument("--tuples", type=int, default=None, help="tuples per relation")
    parser.add_argument("--rounds", type=int, default=ROUNDS)
    parser.add_argument("--json", help="write results to this JSON file")
    args = parser.parse_args(argv)

    tuples = args.tuples or (8_192 if args.smoke else 32_768)
    table = overhead_table(tuples=tuples, rounds=args.rounds)
    _print_table(table)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(table, handle, indent=1)
        print(f"wrote {args.json}")
    if table["overhead_best"] >= OVERHEAD_CEILING:
        print(
            f"FAIL: socket-fleet serve-path overhead"
            f" {table['overhead_best'] * 100:.1f}% exceeds"
            f" {OVERHEAD_CEILING * 100:.0f}% in every round"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
