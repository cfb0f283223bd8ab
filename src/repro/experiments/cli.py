"""Command-line front end for the experiment harness.

Usage (installed as the ``repro-experiments`` console script, or via
``python -m repro.experiments.cli``):

    repro-experiments list
    repro-experiments run fig03 [--trials 5] [--seed 0] [--budgets 100,500]
    repro-experiments run all
    repro-experiments speed [--size 10000]
    repro-experiments stats [--tuples 20000] [--batch 1024] [--methods cosine,...]
    repro-experiments monitor [--tuples 30000] [--jsonl snap.jsonl] [--prom out.prom]
    repro-experiments monitor --serve-metrics 9100   # live GET /metrics endpoint
    repro-experiments monitor --checkpoint-dir ckpts [--checkpoint-every 8192]
    repro-experiments resume --checkpoint-dir ckpts

User errors (bad paths, unknown figures/methods, unreadable checkpoints)
exit non-zero with a one-line message instead of a traceback.

Each subcommand imports what it runs, so ``serve`` or ``stats`` never
loads the figure harness or the data generators.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Any, Callable, Sequence

if TYPE_CHECKING:
    from numpy.typing import NDArray

    from ..obs.metrics import MetricsRegistry
    from ..obs.otel import OtelPushLoop, SpanSource
    from ..streams.queries import JoinQuery


def _cmd_list(args: argparse.Namespace) -> int:
    from .figures import FIGURES

    width = max(len(config.title) for config in FIGURES.values())
    for figure_id in sorted(FIGURES):
        config = FIGURES[figure_id]
        budgets = f"{config.budgets[0]}..{config.budgets[-1]}"
        print(f"{figure_id}  {config.title:<{width}}  space {budgets}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from .figures import FIGURES
    from .harness import run_experiment
    from .report import ascii_chart, format_comparison_summary, format_result, result_to_dict

    if args.figure == "all":
        figure_ids = sorted(FIGURES)
    elif args.figure in FIGURES:
        figure_ids = [args.figure]
    else:
        print(
            f"unknown figure {args.figure!r}; try 'list' for the catalogue",
            file=sys.stderr,
        )
        return 2
    budgets = None
    if args.budgets:
        budgets = tuple(int(b) for b in args.budgets.split(","))
    exported = []
    for figure_id in figure_ids:
        result = run_experiment(
            FIGURES[figure_id], seed=args.seed, trials=args.trials, budgets=budgets
        )
        print(format_result(result))
        if args.chart:
            print(ascii_chart(result))
        print(format_comparison_summary(result))
        print()
        exported.append(result_to_dict(result))
    if args.json:
        import json
        from pathlib import Path

        Path(args.json).write_text(json.dumps(exported, indent=1))
        print(f"wrote {args.json}")
    return 0


def _cmd_speed(args: argparse.Namespace) -> int:
    from .speed import measure_speed

    report = measure_speed(synopsis_size=args.size)
    print(report.summary())
    return 0


def _demo_workload(
    engine: Any,
    args: argparse.Namespace,
    three_way: bool = False,
    probability: float = 0.1,
    **options: Any,
) -> tuple[JoinQuery, dict[str, NDArray[Any]]]:
    """Build the demo join on one engine or a fleet and draw its rows.

    Relations R1(A) and R2(A) over ``--domain`` joined on A or, with
    ``three_way``, the chain R1(A) ⋈ R2(A, B) ⋈ R3(B) with B over half
    the domain; one ``q_<method>`` query per ``--methods`` entry,
    registered with ``options`` (a ``sample`` query keeps each row with
    ``probability``); and ``--tuples`` Zipf(1.3) rows per relation, one
    column per attribute, drawn from ``--seed`` in relation order.
    Returns the query and each relation's rows.
    """
    import numpy as np

    from ..core.normalization import Domain
    from ..streams import JoinQuery

    domain = Domain.of_size(args.domain)
    if three_way:
        inner = Domain.of_size(max(2, args.domain // 2))
        schemas = {"R1": {"A": domain}, "R2": {"A": domain, "B": inner}, "R3": {"B": inner}}
        query = JoinQuery.parse(list(schemas), ["R1.A = R2.A", "R2.B = R3.B"])
    else:
        schemas = {"R1": {"A": domain}, "R2": {"A": domain}}
        query = JoinQuery.parse(list(schemas), ["R1.A = R2.A"])
    for name, schema in schemas.items():
        engine.create_relation(name, list(schema), list(schema.values()))
    for method in (m.strip() for m in args.methods.split(",")):
        if method:
            sample = {"probability": probability} if method == "sample" else {}
            engine.register_query(
                f"q_{method}", query, method=method, budget=args.budget, **sample, **options
            )
    rng = np.random.default_rng(args.seed)
    rows = {
        name: np.stack(
            [(rng.zipf(1.3, size=args.tuples) - 1) % d.size for d in schema.values()], axis=1
        )
        for name, schema in schemas.items()
    }
    return query, rows


def _cmd_stats(args: argparse.Namespace) -> int:
    """Demo ingest/answer cycle printing the engine's instrumentation."""
    from ..streams import StreamEngine

    engine = StreamEngine(seed=args.seed)
    query, rows = _demo_workload(engine, args)
    for name, relation_rows in rows.items():
        if args.batch <= 1:
            for value in relation_rows[:, 0]:
                engine.insert(name, (int(value),))
        else:
            for lo in range(0, args.tuples, args.batch):
                engine.ingest_batch(name, relation_rows[lo : lo + args.batch])

    print(f"estimates after {2 * args.tuples:,} tuples (batch size {args.batch}):")
    exact = engine.exact_join_size(query)
    for name, estimate in engine.answers().items():
        print(f"  {name:<24} {estimate:>14,.1f}   (exact {exact:,.0f})")
    print()
    print(engine.stats().summary())
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    """Demo: point estimates vs guaranteed upper bounds vs clamped answers."""
    from ..streams import StreamEngine

    engine = StreamEngine(seed=args.seed)
    query, rows = _demo_workload(engine, args, args.three_way, probability=1.0, bounds=True)
    for name, relation_rows in rows.items():
        engine.ingest_batch(name, relation_rows)

    exact = engine.exact_join_size(query)
    shape = "3-way chain" if args.three_way else "2-way equi-join"
    print(
        f"{shape}, {args.tuples:,} zipf tuples per relation "
        f"(domain {args.domain}, budget {args.budget}):"
    )
    print(
        f"  {'method':<20} {'estimate':>14} {'upper bound':>14}"
        f" {'clamped':>14} {'clamp':>6}"
    )
    for name in engine.query_names():
        report = engine.bound_report(name)
        assert report is not None
        fired = "yes" if report["clamp_fired"] else "-"
        print(
            f"  {name.removeprefix('q_'):<20} {report['estimate']:>14,.1f}"
            f" {report['upper_bound']:>14,.1f}"
            f" {report['clamped']:>14,.1f} {fired:>6}"
        )
    print(f"  {'exact':<20} {exact:>14,.1f}")
    print()
    print(
        "every bound above is guaranteed: exact <= upper bound holds for any\n"
        "stream, and the clamped answer never exceeds it (see docs/BOUNDS.md)"
    )
    return 0


def _build_otel_loop(
    args: argparse.Namespace,
    metrics: MetricsRegistry | Callable[[], MetricsRegistry] | None,
    spans: SpanSource | None,
    registry: MetricsRegistry | None = None,
) -> OtelPushLoop | None:
    """An OTLP push loop from ``--otlp-endpoint``/``--otlp-file``, or ``None``.

    ``--otlp-endpoint`` wins when both are given (a collector is the
    richer sink); ``--otlp-file -`` streams OTLP/JSON lines to stdout.
    """
    if not (args.otlp_endpoint or args.otlp_file):
        return None
    from ..obs.otel import OtelPushLoop, OtlpHttpExporter, OtlpJsonFileExporter

    if args.otlp_endpoint:
        exporter = OtlpHttpExporter(args.otlp_endpoint)
    else:
        exporter = OtlpJsonFileExporter(args.otlp_file)
    return OtelPushLoop(
        exporter, metrics=metrics, spans=spans, every_s=args.otlp_every, registry=registry
    )


def _finish_otel(otel: OtelPushLoop | None, args: argparse.Namespace) -> None:
    """Final flush plus a one-line export/drop account."""
    if otel is None:
        return
    otel.push_now()
    exporter = otel.exporter
    target = args.otlp_endpoint or (
        "stdout" if args.otlp_file == "-" else args.otlp_file
    )
    print(
        f"OTLP export to {target}: {exporter.exports} payloads"
        f" ({exporter.retries} retries, {exporter.drops} dropped)"
    )


def _cmd_monitor(args: argparse.Namespace) -> int:
    """Ingest a synthetic stream and render a live-refreshing stats table.

    The full telemetry loop in one command: a
    :class:`~repro.streams.engine.StreamEngine` with queries registered
    per requested method, online accuracy tracking at a configurable
    cadence, and a dashboard (counters, estimate-latency percentiles,
    per-query streaming relative error, recent spans) re-rendered every
    ``--refresh-every`` ingested tuples.  Optional sinks: ``--jsonl``
    appends a snapshot per refresh, ``--prom`` writes the final registry
    in Prometheus text exposition format.  With ``--checkpoint-dir`` set,
    the engine is checkpointed every ``--checkpoint-every`` ingested
    tuples (rotated, last ``--checkpoint-keep`` files kept) so a crashed
    monitor can be resumed with the ``resume`` subcommand.

    With ``--shards N`` (N > 1) the same workload and loop drive a
    :class:`~repro.sharding.ShardedStreamEngine` fleet over
    ``--executor``.  Each refresh then prints the fleet's throughput and
    a per-shard occupancy line, snapshots carry per-shard stats, the
    sinks export the merged fleet registry, a checkpoint is one rotated
    store per shard plus the fleet manifest, and the final estimates are
    printed at the end.  A fleet ignores ``--trace-sample`` and
    ``--accuracy-every``.
    """
    from contextlib import ExitStack
    from time import perf_counter

    from ..obs import JsonlSnapshotWriter, MetricsRegistry, prometheus_text

    with ExitStack() as cleanup:
        target: Any
        metrics: Callable[[], MetricsRegistry]
        if args.shards > 1:
            from ..sharding import ShardedStreamEngine

            fleet = target = cleanup.enter_context(
                ShardedStreamEngine(num_shards=args.shards, seed=args.seed, executor=args.executor)
            )
            _, rows = _demo_workload(fleet, args)
            writer = JsonlSnapshotWriter(args.jsonl) if args.jsonl else None
            # A provider, not a registry: the merged fleet registry is
            # rebuilt on every call so per-shard counters stay current, and
            # the export self-metrics live in a stable registry merged in.
            metrics = fleet.fleet_metrics
            own_registry = MetricsRegistry()
            otel = _build_otel_loop(
                args,
                metrics=lambda: fleet.fleet_metrics().merge(own_registry),
                spans=fleet.drain_spans,
                registry=own_registry,
            )

            def render() -> None:
                elapsed = perf_counter() - start
                stats = fleet.shard_stats()
                total = sum(s["tuples_ingested"] for s in stats)
                rate = total / elapsed if elapsed > 0 else 0.0
                print(
                    f"[{elapsed:7.2f}s] {total:>12,} ops over {args.shards} shards"
                    f" ({args.executor}), {rate:>12,.0f} ops/s"
                )
                occupancy = "  ".join(
                    f"s{i}:{s['tuples_ingested']:,}" for i, s in enumerate(stats)
                )
                print(f"           {occupancy}")

            def snapshot() -> dict[str, Any]:
                return {"shards": fleet.shard_stats(), "answers": fleet.answers()}

            def checkpoint() -> str:
                fleet.save_checkpoints(args.checkpoint_dir, keep=args.checkpoint_keep)
                return f"wrote per-shard checkpoints + fleet manifest to {args.checkpoint_dir}"

        else:
            from ..obs import Telemetry, render_dashboard
            from ..resilience import CheckpointStore
            from ..streams import StreamEngine

            engine = target = StreamEngine(
                seed=args.seed, telemetry=Telemetry(trace_sample_every=args.trace_sample)
            )
            _, rows = _demo_workload(engine, args)
            tracker = engine.track_accuracy(every_ops=args.accuracy_every)
            registry = engine.telemetry.registry
            writer = JsonlSnapshotWriter(args.jsonl, registry=registry) if args.jsonl else None
            if args.checkpoint_dir:
                store = CheckpointStore(args.checkpoint_dir, keep=args.checkpoint_keep)
            metrics = lambda: registry
            tracer = engine.telemetry.tracer
            otel = _build_otel_loop(
                args,
                metrics=registry,
                spans=(lambda: [({}, tracer.drain())]) if tracer is not None else None,
            )
            clear_screen = sys.stdout.isatty() and not args.no_clear

            def render() -> None:
                if clear_screen:
                    print("\x1b[2J\x1b[H", end="")
                print(
                    render_dashboard(
                        engine.stats(),
                        accuracy=tracker,
                        tracer=tracer,
                        elapsed_s=perf_counter() - start,
                    )
                )
                if not clear_screen:
                    print("-" * 72)

            def snapshot() -> dict[str, Any]:
                return {"stats": engine.stats().as_dict(), "accuracy": tracker.as_dict()}

            def checkpoint() -> str:
                path = store.save(engine)
                return (
                    f"wrote checkpoint {path.name} "
                    f"({len(store.paths())} kept in {args.checkpoint_dir})"
                )

        if args.serve_metrics is not None:
            from ..obs import MetricsServer

            server = MetricsServer(metrics, port=args.serve_metrics).start()
            cleanup.callback(server.stop)
            print(f"serving metrics at {server.url}")
        start = perf_counter()
        batch = max(1, args.batch)
        since_refresh = since_checkpoint = 0
        for lo in range(0, args.tuples, batch):
            for name, relation_rows in rows.items():
                chunk = relation_rows[lo : lo + batch]
                target.ingest_batch(name, chunk)
                since_refresh += chunk.shape[0]
                since_checkpoint += chunk.shape[0]
            if since_refresh >= args.refresh_every:
                since_refresh = 0
                render()
                if writer is not None:
                    writer.write(snapshot())
            if otel is not None:
                otel.maybe_push()
            if args.checkpoint_dir and since_checkpoint >= args.checkpoint_every:
                since_checkpoint = 0
                checkpoint()
        answers = target.answers()  # leaves one engine's final latencies in its histogram
        render()
        if args.shards > 1:
            print("final estimates:")
            for name, estimate in answers.items():
                print(f"  {name:<24} {estimate:>14,.1f}")
        if writer is not None:
            writer.write(snapshot())
            print(f"wrote {writer.snapshots_written} snapshots to {args.jsonl}")
        if args.checkpoint_dir:
            print(checkpoint())
        if args.prom:
            from pathlib import Path

            Path(args.prom).write_text(prometheus_text(metrics()))
            print(f"wrote Prometheus exposition to {args.prom}")
        _finish_otel(otel, args)
    return 0


def _list_restored(engine: Any, counts: dict[str, int]) -> None:
    """Print restored relation counts and every query's answer.

    A degraded query (an observer was quarantined before the checkpoint)
    is reported as such instead of aborting the listing.
    """
    from ..resilience import DegradedQueryError

    for name, count in counts.items():
        print(f"  relation {name:<8} {count:>12,} tuples")
    for name in engine.query_names():
        try:
            estimate = engine.answer(name)
        except DegradedQueryError as exc:
            print(f"  query {name:<20} degraded ({exc.reason})")
        else:
            print(f"  query {name:<20} {estimate:>14,.1f}")


def _cmd_resume(args: argparse.Namespace) -> int:
    """Restore the newest checkpoint in a directory and print its state.

    Recovery smoke test in one command: load the latest rotated
    checkpoint written by ``monitor --checkpoint-dir`` (or any
    :class:`~repro.resilience.CheckpointStore` user), then print the
    restored relation cardinalities and every registered query's answer.
    A directory holding a fleet manifest (written by ``monitor --shards
    N``) is detected automatically and restored as a whole
    :class:`~repro.sharding.ShardedStreamEngine` fleet.
    """
    from pathlib import Path

    if (Path(args.checkpoint_dir) / "fleet-manifest.json").exists():
        from ..sharding import ShardedStreamEngine

        with ShardedStreamEngine.restore(args.checkpoint_dir) as fleet:
            print(f"restored {fleet.num_shards}-shard fleet from {args.checkpoint_dir}")
            counts = {name: fleet.total_count(name) for name in fleet.relation_names()}
            _list_restored(fleet, counts)
        return 0
    from ..resilience import CheckpointStore
    from ..streams import StreamEngine

    latest = CheckpointStore(args.checkpoint_dir).latest()
    if latest is None:
        print(f"no checkpoints found in {args.checkpoint_dir}", file=sys.stderr)
        return 2
    engine = StreamEngine.load_checkpoint(latest)
    print(f"restored {latest.name} from {args.checkpoint_dir}")
    _list_restored(engine, {name: r.count for name, r in engine.relations.items()})
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the long-lived fleet serving daemon.

    Starts an (initially empty) :class:`~repro.sharding.ShardedStreamEngine`
    — by default behind the supervised ``socket`` executor, so crashed
    shard workers restart and replay themselves — and serves it over the
    newline-JSON protocol of :class:`~repro.fleet.FleetServer`.  Clients
    create relations, register queries, ingest, and query concurrently;
    ``--policy partial`` answers from surviving shards (flagged and
    survivor-scaled) when a shard is lost beyond recovery instead of
    erroring.  ``--max-seconds`` bounds the run for smoke tests and CI;
    the default serves until interrupted.

    OpenBLAS runs on one thread in the daemon and the shards it forks,
    unless ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or
    ``OMP_NUM_THREADS`` is set (:func:`repro._blas.one_blas_thread`).  The
    daemon applies the policy before it imports numpy, so OpenBLAS never
    starts a second thread (on two vCPUs that adds about 60 ms, and 75 ms
    of CPU, to a cold numpy import).
    """
    from .._blas import one_blas_thread

    one_blas_thread()
    import asyncio

    from ..fleet import FleetServer
    from ..sharding import ShardedStreamEngine

    if args.executor == "socket":
        from ..fleet.executor import SocketExecutor

        executor: object = SocketExecutor(
            max_restarts=args.max_restarts,
            heartbeat_interval=args.heartbeat_interval,
        )
    else:
        executor = args.executor
    fleet = ShardedStreamEngine(
        num_shards=args.shards, seed=args.seed, executor=executor
    )
    if args.dead_letter_capacity > 0:
        fleet.enable_dead_lettering(args.dead_letter_capacity)
    server = FleetServer(
        fleet, host=args.host, port=args.port, policy=args.policy
    )

    async def run() -> None:
        await server.start()
        host, port = server.address
        print(
            f"serving {args.shards}-shard fleet at {host}:{port} "
            f"(executor={args.executor}, policy={args.policy})",
            flush=True,
        )
        try:
            if args.max_seconds is not None:
                try:
                    await asyncio.wait_for(
                        server.serve_forever(), timeout=args.max_seconds
                    )
                except asyncio.TimeoutError:
                    pass
            else:
                await server.serve_forever()
        finally:
            await server.close()

    try:
        asyncio.run(run())
    finally:
        fleet.close()
    return 0


def _cmd_deadletters(args: argparse.Namespace) -> int:
    """Inspect — or with ``--replay``, re-ingest — a daemon's dead letters.

    Talks to a running ``serve`` daemon.  Without flags, prints the
    buffer's accounting and most recent entries.  With ``--replay``,
    every buffered row is re-validated and re-ingested through the
    normal partitioned path; rows that are still malformed stay
    buffered, and the partial-success breakdown is printed per relation.
    """
    from ..fleet import FleetClient

    with FleetClient(args.host, args.port) as client:
        response = client.request("deadletters", replay=bool(args.replay))
    if not response.get("ok"):
        print(f"error: {response.get('error')}", file=sys.stderr)
        return 2
    if args.replay:
        report = response["replay"]
        print(
            f"replayed {report['attempted']} dead letters: "
            f"{report['ingested']} re-ingested, {report['still_dead']} still dead"
        )
        for relation, count in sorted(report["by_relation"].items()):
            print(f"  {relation:<12} {count} re-ingested")
    else:
        snap = response["deadletters"]
        print(
            f"dead letters: {snap['held']} held / capacity {snap['capacity']} "
            f"(total {snap['total']}, dropped {snap['dropped']})"
        )
        for letter in snap["tail"]:
            print(
                f"  {letter['relation']:<10} {letter['kind']:<7} "
                f"{letter['reason']:<14} {letter['row']}"
            )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .sweeps import (
        bound_tightness_sweep,
        correlation_sweep,
        domain_size_sweep,
        skew_sweep,
    )

    sweeps = {
        "skew": skew_sweep,
        "correlation": correlation_sweep,
        "domain": domain_size_sweep,
    }
    if args.axis == "bound":
        points = bound_tightness_sweep(trials=args.trials, seed=args.seed)
        print(f"{'space':>7}  {'measured':>10}  {'bound':>12}")
        for p in points:
            print(
                f"{p.budget:>7}  {p.measured * 100:>9.3f}%  {p.bound * 100:>11.1f}%"
            )
        return 0
    if args.axis not in sweeps:
        print(f"unknown sweep axis {args.axis!r}", file=sys.stderr)
        return 2
    points = sweeps[args.axis](trials=args.trials, seed=args.seed)
    methods = list(points[0].errors)
    print(f"{'param':>9}  " + "  ".join(f"{m:>15}" for m in methods))
    for point in points:
        print(
            f"{point.parameter:>9.3g}  "
            + "  ".join(f"{point.errors[m] * 100:>14.2f}%" for m in methods)
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce the paper's section 5 experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the figure catalogue").set_defaults(
        func=_cmd_list
    )

    run = sub.add_parser("run", help="run one figure's sweep (or 'all')")
    run.add_argument("figure", help="fig01..fig20, or 'all'")
    run.add_argument("--trials", type=int, default=None)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--budgets", help="comma-separated space budgets")
    run.add_argument("--chart", action="store_true", help="render an ASCII error chart")
    run.add_argument("--json", help="also write the raw series to this JSON file")
    run.set_defaults(func=_cmd_run)

    speed = sub.add_parser("speed", help="measure the section 5.4 timings")
    speed.add_argument("--size", type=int, default=10_000)
    speed.set_defaults(func=_cmd_speed)

    stats = sub.add_parser(
        "stats", help="run a demo ingest/answer cycle and print engine counters"
    )
    stats.add_argument("--tuples", type=int, default=20_000, help="tuples per relation")
    stats.add_argument("--batch", type=int, default=1024, help="ingest batch size (1 = per-tuple)")
    stats.add_argument("--domain", type=int, default=10_000)
    stats.add_argument("--budget", type=int, default=200)
    stats.add_argument("--seed", type=int, default=0)
    stats.add_argument(
        "--methods",
        default="cosine,basic_sketch,sample,histogram,wavelet",
        help="comma-separated estimation methods to register",
    )
    stats.set_defaults(func=_cmd_stats)

    bounds = sub.add_parser(
        "bounds",
        help="compare point estimates against guaranteed upper bounds and clamps",
    )
    bounds.add_argument("--tuples", type=int, default=20_000, help="tuples per relation")
    bounds.add_argument("--domain", type=int, default=1_000)
    bounds.add_argument("--budget", type=int, default=200)
    bounds.add_argument("--seed", type=int, default=0)
    bounds.add_argument(
        "--methods",
        default="cosine,basic_sketch,sample,histogram",
        help="comma-separated estimation methods to register with bounds=True",
    )
    bounds.add_argument(
        "--three-way",
        action="store_true",
        help="use a 3-way chain join R1.A=R2.A, R2.B=R3.B instead of a 2-way join",
    )
    bounds.set_defaults(func=_cmd_bounds)

    monitor = sub.add_parser(
        "monitor",
        help="ingest a synthetic stream with live telemetry dashboard refreshes",
    )
    monitor.add_argument("--tuples", type=int, default=30_000, help="tuples per relation")
    monitor.add_argument("--batch", type=int, default=1024, help="ingest batch size")
    monitor.add_argument("--domain", type=int, default=10_000)
    monitor.add_argument("--budget", type=int, default=200)
    monitor.add_argument("--seed", type=int, default=0)
    monitor.add_argument(
        "--methods",
        default="cosine,basic_sketch",
        help="comma-separated estimation methods to register",
    )
    monitor.add_argument(
        "--refresh-every",
        type=int,
        default=8192,
        help="re-render the dashboard every this many ingested tuples",
    )
    monitor.add_argument(
        "--accuracy-every",
        type=int,
        default=4096,
        help="sample estimate-vs-exact relative error every this many tuples",
    )
    monitor.add_argument(
        "--trace-sample",
        type=int,
        default=None,
        metavar="N",
        help="record ~1 in N hot-path trace spans instead of all of them "
        "(cuts tracing overhead on per-tuple workloads; default records all)",
    )
    monitor.add_argument("--jsonl", help="append a JSONL telemetry snapshot per refresh")
    monitor.add_argument(
        "--prom", help="write the final registry in Prometheus text format here"
    )
    monitor.add_argument(
        "--serve-metrics",
        type=int,
        default=None,
        metavar="PORT",
        help="serve GET /metrics (Prometheus text) on this port while "
        "ingesting (0 picks a free port)",
    )
    monitor.add_argument(
        "--no-clear",
        action="store_true",
        help="never clear the screen between refreshes (e.g. when piping)",
    )
    monitor.add_argument(
        "--checkpoint-dir",
        help="write rotated engine checkpoints into this directory",
    )
    monitor.add_argument(
        "--checkpoint-every",
        type=int,
        default=8192,
        help="checkpoint every this many ingested tuples",
    )
    monitor.add_argument(
        "--checkpoint-keep",
        type=int,
        default=3,
        help="how many rotated checkpoints to retain",
    )
    monitor.add_argument(
        "--otlp-endpoint",
        metavar="URL",
        help="push spans and metrics as OTLP/JSON to this collector base URL "
        "(e.g. http://localhost:4318)",
    )
    monitor.add_argument(
        "--otlp-file",
        metavar="PATH",
        help="append OTLP/JSON payload lines to this file instead of a "
        "collector ('-' streams to stdout)",
    )
    monitor.add_argument(
        "--otlp-every",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="minimum seconds between OTLP pushes",
    )
    monitor.add_argument(
        "--shards",
        type=int,
        default=1,
        help="partition the stream across this many engine shards (>1 enables sharding)",
    )
    monitor.add_argument(
        "--executor",
        default="serial",
        choices=["serial", "thread", "process", "socket"],
        help="shard executor backend (with --shards > 1)",
    )
    monitor.set_defaults(func=_cmd_monitor)

    serve = sub.add_parser(
        "serve",
        help="run the fleet serving daemon (newline-JSON over TCP)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0, help="port to bind (0 picks a free one)"
    )
    serve.add_argument("--shards", type=int, default=4)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--executor",
        default="socket",
        choices=["serial", "thread", "process", "socket"],
        help="shard executor backend (socket = supervised worker processes)",
    )
    serve.add_argument(
        "--policy",
        default="raise",
        choices=["raise", "partial"],
        help="default query policy when shards are lost beyond recovery",
    )
    serve.add_argument(
        "--max-restarts",
        type=int,
        default=5,
        help="supervised restarts per shard before it is marked down",
    )
    serve.add_argument(
        "--heartbeat-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="ping idle shard workers this often (default: command-path "
        "detection only)",
    )
    serve.add_argument(
        "--dead-letter-capacity",
        type=int,
        default=1024,
        help="fleet dead-letter buffer size (0 disables dead-lettering)",
    )
    serve.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        help="exit after this many seconds (for smoke tests; default: forever)",
    )
    serve.set_defaults(func=_cmd_serve)

    deadletters = sub.add_parser(
        "deadletters",
        help="inspect or replay a running serve daemon's dead-letter buffer",
    )
    deadletters.add_argument("--host", default="127.0.0.1")
    deadletters.add_argument("--port", type=int, required=True)
    deadletters.add_argument(
        "--replay",
        action="store_true",
        help="re-validate and re-ingest every buffered row",
    )
    deadletters.set_defaults(func=_cmd_deadletters)

    resume = sub.add_parser(
        "resume",
        help="restore the newest checkpoint and print the recovered state",
    )
    resume.add_argument(
        "--checkpoint-dir",
        required=True,
        help="directory of rotated checkpoints to recover from",
    )
    resume.set_defaults(func=_cmd_resume)

    sweep = sub.add_parser(
        "sweep", help="sensitivity sweeps: skew | correlation | domain | bound"
    )
    sweep.add_argument("axis", choices=["skew", "correlation", "domain", "bound"])
    sweep.add_argument("--trials", type=int, default=3)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except Exception as exc:
        from ..resilience.errors import ResilienceError

        if isinstance(exc, (OSError, ValueError, KeyError, ResilienceError)):
            print(f"error: {exc}", file=sys.stderr)
            return 2
        raise


if __name__ == "__main__":
    raise SystemExit(main())
