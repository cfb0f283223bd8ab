"""The four workloads of the layered benchmark; one runs per child process.

``run.py`` starts this file once per workload run::

    python3 benchmarks/layered/workloads.py --workload W --seed N --seconds S --trace 0|1

and reads the result JSON from its last stdout line.  Every input row and
request is generated here from ``--seed``; the program only ever sees the
generated rows and requests.  Exact answers come from the benchmark's own
``bincount`` tensors, never from the program.

An untraced run sets the system up twice before its op script and three
times after it (``setup_s`` is the median of the five), and runs a fixed
op script: ``--seconds`` times the workload's ``rate`` rounds, which take
about ``--seconds`` on the reference box.  The script depends only on
``--seconds``, ``--scale`` and ``--seed``, never on how fast the program
is, so every run does the same work on the same state.  A traced run
measures the script for half the time twice on fresh systems, first
untraced, then traced, so ``bench.trace_overhead`` compares equal work.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

from common import HERE, SRC, WORK, metric_table, percentile
from spans import (Recorder, Span, event_dicts, installed, layer_metrics, layer_table,
                   union_length)

#: Only the first check points' errors form ``rel_error_p50``, so the
#: metric does not depend on how many rounds a run reaches.
REL_ERROR_CHECKS = 4
#: An open-loop request acknowledged later than this after its due time failed.
TIMEOUT_S = 5.0
#: Set-ups per untraced run before and after the op script; ``setup_s`` is
#: the median of all of them.  Spread over the run, they sample the host at
#: several moments, so one slow second of a shared machine cannot set it.
SETUPS_BEFORE, SETUPS_AFTER = 2, 3
#: Relative slack for comparing guaranteed bounds with exact integers.
TOL = 1e-9
#: Returned by :meth:`Ops.run` for an op that raised.
FAILED: Any = object()


# ---------------------------------------------------------------------- #
# inputs: pure functions of (seed, stream, index)
# ---------------------------------------------------------------------- #


def zipf_rows(seed: int, stream: int, index: int, rows: int, domain: int) -> np.ndarray:
    """Zipf(1.3) values folded into ``[0, domain)``, as a ``(rows, 1)`` batch."""
    rng = np.random.default_rng([seed, stream, index])
    return ((rng.zipf(1.3, rows) - 1) % domain).astype(np.int64)[:, None]


def uniform_rows(seed: int, stream: int, index: int, rows: int, domains: tuple[int, ...]
                 ) -> np.ndarray:
    """Uniform rows over ``domains``, as a ``(rows, len(domains))`` batch."""
    rng = np.random.default_rng([seed, stream, index])
    return np.stack([rng.integers(0, d, rows) for d in domains], axis=1).astype(np.int64)


def cosine_order(budget: int, ndim: int) -> int:
    """Coefficients per axis a triangular cosine synopsis keeps under ``budget``."""
    if ndim == 1:
        return budget
    m = 1
    while (m + 1) * (m + 2) // 2 <= budget:
        m += 1
    return m


def eq47_bound(n1: float, n2: float, n: int, m: int) -> float:
    """Paper Eq. 4.7: ``|J - Est| <= 2 N1 N2 (n - m) / n``."""
    return 2.0 * n1 * n2 * (n - m) / n


def bincount(rows: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Exact count tensor of a row batch."""
    flat = np.ravel_multi_index(tuple(rows.T), shape)
    return np.bincount(flat, minlength=int(np.prod(shape))).reshape(shape)


def rel_error(estimate: float, exact: float) -> float:
    return abs(estimate - exact) / exact


# ---------------------------------------------------------------------- #
# op accounting
# ---------------------------------------------------------------------- #


class Ops:
    """Latency per op kind, tuple counts, failures; spans when traced.

    Ops marked ``known`` fail today because of a known program bug.  They
    count in ``failed_ops_frac``, so fixing the bug shows as a drop, but
    not in the run's ``attempted`` and ``failed``, which describe the ops
    the benchmark expects to succeed.
    """

    def __init__(self, rec: Recorder | None = None) -> None:
        self.rec = rec
        self.latency: dict[str, list[float]] = defaultdict(list)
        self.tuples = 0
        self.attempted = 0
        self.failed = 0
        self.known_attempted = 0
        self.known_failed = 0
        self.errors: list[str] = []
        self.known_errors: set[str] = set()
        self.rel_errors: list[float] = []
        self.checks = 0

    def run(self, kind: str, fn: Callable[..., Any], *args: Any, tuples: int = 0,
            known: bool = False) -> Any:
        """Time one op; a raise is a failed op, never an exit."""
        if known:
            self.known_attempted += 1
        else:
            self.attempted += 1
        rec = self.rec
        if rec is not None:
            rec.trace_id = self.attempted + self.known_attempted
        start = perf_counter()
        try:
            with rec.span("op." + kind) if rec is not None else nullcontext():
                result = fn(*args)
        except Exception as exc:
            message = f"{kind}: {type(exc).__name__}: {exc}"
            if known:
                self.known_failed += 1
                self.known_errors.add(message)
            else:
                self.fail(message)
            return FAILED
        self.latency[kind].append(perf_counter() - start)
        self.tuples += tuples
        return result

    def failed_ops_frac(self) -> float:
        return (self.failed + self.known_failed) / max(self.attempted + self.known_attempted, 1)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def expect(self, ok: bool, message: str) -> None:
        """One output check; a failed check counts as a failed op."""
        self.checks += 1
        if not ok:
            self.fail("check: " + message)

    def errors_at(self, check: int, pairs: list[tuple[float, float]]) -> None:
        """Record ``(estimate, exact)`` errors for the first check points."""
        if check <= REL_ERROR_CHECKS:
            self.rel_errors.extend(rel_error(est, exact) for est, exact in pairs if exact > 0)

    def merge(self, other: "Ops") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.known_attempted += other.known_attempted
        self.known_failed += other.known_failed
        self.known_errors |= other.known_errors
        self.checks += other.checks
        self.errors = (self.errors + other.errors)[:20]


def end_to_end(ops: Ops, setup_times: list[float], run_s: float,
               state_bytes: int | None) -> dict[str, float | None]:
    """Every end-to-end metric; ``None`` where the workload has no such op."""
    ingest = ops.latency["ingest"]
    answers = ops.latency["answer"]
    checkpoints = ops.latency["checkpoint"]
    return {
        "setup_s": float(np.median(setup_times)),
        "run_s": run_s,
        "ingest_tps": ops.tuples / sum(ingest) if ingest else 0.0,
        "ingest_p50_ms": percentile(ingest, 50) * 1e3,
        "ingest_p90_ms": percentile(ingest, 90) * 1e3,
        "answer_p50_us": percentile(answers, 50) * 1e6,
        "answer_p99_us": percentile(answers, 99) * 1e6,
        "checkpoint_p50_ms": percentile(checkpoints, 50) * 1e3 if checkpoints else None,
        "failed_ops_frac": ops.failed_ops_frac(),
        "rel_error_p50": percentile(ops.rel_errors, 50),
        "state_bytes": state_bytes,
        "peak_rss_mb": peak_rss_mb(),
    }


def peak_rss_mb() -> float:
    """Largest ``ru_maxrss`` of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# ---------------------------------------------------------------------- #
# closed-loop workloads
# ---------------------------------------------------------------------- #


class ClosedLoop:
    """One caller, one op at a time, in rounds of ingest and answers."""

    name = ""
    #: Rounds per second of ``--seconds`` in the op script.
    rate = 8.0
    #: Rounds between check points.
    check_every = 16
    #: True when in-process ``StreamEngine.ingest_batch`` is a coordinator replica.
    sharded = False
    #: Query name -> method label, for per-method answer latencies.
    labels: dict[str, str] = {}

    def __init__(self, seed: int, scale: float, work: Path) -> None:
        self.seed = seed
        self.scale = scale
        self.work = work
        self.tracing = False
        self.groups: list[tuple[dict, list[dict]]] = []

    def script_rounds(self, seconds: float) -> int:
        """Length of the op script; at least one check point."""
        return max(self.check_every, round(seconds * self.rate * self.scale))

    def build(self) -> Any:
        """Construct, register, warm up with batch 0; reset the exact counts."""
        raise NotImplementedError

    def close(self, system: Any) -> None:
        """Release the system (stop workers)."""

    def round(self, system: Any, r: int, ops: Ops) -> None:
        raise NotImplementedError

    def check(self, system: Any, r: int, ops: Ops, k: int) -> None:
        """Check point ``k`` (1-based), after round ``r``; untimed."""
        raise NotImplementedError

    def finish(self, system: Any, ops: Ops, rounds: int, full: bool) -> dict[str, Any]:
        """Untimed end-of-run work: final state size, replays, diagnostics."""
        return {}

    def collect(self, system: Any) -> None:
        """Keep the spans the program recorded since the last call."""


def timed_loop(w: ClosedLoop, system: Any, ops: Ops, rounds: int) -> float:
    """Run the first ``rounds`` rounds; their wall time, checks excluded."""
    in_checks = 0.0
    start = perf_counter()
    for r in range(1, rounds + 1):
        w.round(system, r, ops)
        if r % w.check_every == 0:
            t = perf_counter()
            with ops.rec.paused() if ops.rec is not None else nullcontext():
                w.check(system, r, ops, r // w.check_every)
            in_checks += perf_counter() - t
    return perf_counter() - start - in_checks


def timed_build(w: ClosedLoop, setup_times: list[float]) -> Any:
    start = perf_counter()
    system = w.build()
    setup_times.append(perf_counter() - start)
    return system


def run_closed_loop(w: ClosedLoop, seconds: float, trace: bool, setups: tuple[int, int]
                    ) -> tuple[Ops, dict[str, Any], dict[str, Any]]:
    if not trace:
        rounds = w.script_rounds(seconds)
        before, after = setups
        setup_times: list[float] = []
        for _ in range(before - 1):
            w.close(timed_build(w, setup_times))
        system = timed_build(w, setup_times)
        ops = Ops()
        try:
            run_s = timed_loop(w, system, ops, rounds)
            details = w.finish(system, ops, rounds, full=False)
        finally:
            w.close(system)
        for _ in range(after):
            w.close(timed_build(w, setup_times))
        values = end_to_end(ops, setup_times, run_s, details.pop("state_bytes"))
        details.update(rounds=rounds, setup_times=setup_times)
        return ops, values, details

    rounds = w.script_rounds(seconds / 2)
    system = w.build()
    untraced = Ops()
    try:
        run_a = timed_loop(w, system, untraced, rounds)
    finally:
        w.close(system)
    system = w.build()
    rec = Recorder()
    rec.labels = w.labels
    ops = Ops(rec)
    w.tracing = True
    try:
        w.collect(system)
        w.groups = []  # set-up spans are not part of the measured phase
        with installed(rec):
            run_b = timed_loop(w, system, ops, rounds)
        w.collect(system)
        details = w.finish(system, ops, rounds, full=True)
    finally:
        w.close(system)
    top = sum(s.end - s.start for s in rec.spans if s.parent == -1 and s.name.startswith("op."))
    ctx = {
        "sharded": w.sharded,
        "trace_overhead": run_b / run_a - 1.0,
        "span_coverage": top / run_b,
        "single_engine_s": details.pop("single_engine_s", sum(untraced.latency["ingest"])),
        "input_distinct_frac": details.pop("input_distinct_frac", 0.0),
    }
    values = layer_metrics(rec.spans, w.groups, ctx)
    details.update(run_s=run_b, untraced_run_s=run_a, rounds=rounds,
                   layers=layer_table(rec.spans))
    ops.merge(untraced)
    return ops, values, details


class EngineZipfIngest(ClosedLoop):
    """Ingest-heavy: Zipf batches, deletes, four identical cosine queries."""

    name = "engine_zipf_ingest"
    DOMAIN = 4096
    BUDGET = 256
    COSINE = ("c0", "c1", "c2", "c3")
    labels = {**{q: "cosine" for q in COSINE}, "agms": "basic_sketch", "hist": "histogram"}

    def batch(self, b: int) -> np.ndarray:
        return zipf_rows(self.seed, 1, b, max(64, int(8192 * self.scale)), self.DOMAIN)

    def apply(self, rel: str, rows: np.ndarray, kind: Any) -> None:
        from repro.streams.tuples import OpKind

        sign = -1 if kind is OpKind.DELETE else 1
        self.counts[rel] += sign * np.bincount(rows[:, 0], minlength=self.DOMAIN)

    def build(self) -> Any:
        from repro.core.normalization import Domain
        from repro.obs.telemetry import Telemetry
        from repro.streams import JoinQuery, StreamEngine
        from repro.streams.tuples import OpKind

        engine = StreamEngine(seed=0, telemetry=Telemetry())
        for rel in ("R1", "R2"):
            engine.create_relation(rel, ["A"], [Domain.of_size(self.DOMAIN)])
        query = JoinQuery.parse(["R1", "R2"], ["R1.A = R2.A"])
        for name in self.COSINE:
            engine.register_query(name, query, method="cosine", budget=self.BUDGET,
                                  bounds=name == "c0")
        engine.register_query("agms", query, method="basic_sketch", budget=self.BUDGET)
        engine.register_query("hist", query, method="histogram", budget=self.BUDGET)
        self.counts = {rel: np.zeros(self.DOMAIN, dtype=np.int64) for rel in ("R1", "R2")}
        rows = self.batch(0)
        engine.ingest_batch("R1", rows)
        self.apply("R1", rows, OpKind.INSERT)
        return engine

    def round(self, engine: Any, r: int, ops: Ops) -> None:
        from repro.streams.tuples import OpKind

        rel = "R1" if r % 2 == 0 else "R2"
        # Rounds 7 and 14 of every 16 delete the batch of round r - 6, an
        # insert of the same relation that nothing else deletes.
        kind = OpKind.DELETE if r % 16 in (7, 14) else OpKind.INSERT
        rows = self.batch(r - 6 if kind is OpKind.DELETE else r)
        if ops.run("ingest", engine.ingest_batch, rel, rows, kind, tuples=len(rows)) is not FAILED:
            self.apply(rel, rows, kind)
        self.last = {name: ops.run("answer", engine.answer, name)
                     for name in (*self.COSINE, "agms", "hist")}
        self.last["c0/clamped"] = ops.run("answer", engine.estimate, "c0", "clamped")

    def check(self, engine: Any, r: int, ops: Ops, k: int) -> None:
        c1, c2 = self.counts["R1"], self.counts["R2"]
        exact = float(c1 @ c2)
        bound = engine.estimate("c0", "upper_bound")
        ops.expect(exact <= bound * (1 + TOL), f"round {r}: exact {exact} > upper bound {bound}")
        eq47 = eq47_bound(c1.sum(), c2.sum(), self.DOMAIN, cosine_order(self.BUDGET, 1))
        for name in (*self.COSINE, "c0/clamped"):
            est = self.last[name]
            if est is not FAILED:
                ops.expect(abs(exact - est) <= eq47 * (1 + TOL),
                           f"round {r}: {name} {est} breaks Eq. 4.7 around {exact}")
        ops.errors_at(k, [(self.last[n], exact) for n in (*self.COSINE, "agms", "hist")
                          if self.last[n] is not FAILED])

    def finish(self, engine: Any, ops: Ops, rounds: int, full: bool) -> dict[str, Any]:
        return {"state_bytes": engine.save_checkpoint(self.work / "final.ckpt")}


class EngineUniformQueries(ClosedLoop):
    """Read-heavy: near-uniform data, every method, 64 estimates per insert."""

    name = "engine_uniform_queries"
    rate = 8.0
    check_every = 8  # 512 estimates
    SHAPES = {"R1": (1024,), "R2": (1024, 256), "R3": (256,)}
    METHODS = ("cosine", "basic_sketch", "skimmed_sketch", "sample", "histogram", "wavelet",
               "partitioned_sketch")
    CHAIN = ("cosine", "basic_sketch", "sample")
    MODES = ("answer", "upper_bound", "clamped")
    BUDGET = 256
    ESTIMATES_PER_ROUND = 64
    RANGE = (100, 400)
    BAND = 3
    labels = {**{f"j_{m}": m for m in METHODS}, **{f"c_{m}": m for m in CHAIN},
              "range": "cosine_range", "band": "cosine_band", "empty": "cosine"}

    def rows(self, rel: str, index: int, n: int) -> np.ndarray:
        return uniform_rows(self.seed, 2 + list(self.SHAPES).index(rel), index, n,
                            self.SHAPES[rel])

    def insert(self, k: int) -> tuple[str, np.ndarray]:
        rel = ("R1", "R2", "R3")[k % 3]
        return rel, self.rows(rel, k + 1, max(16, int(256 * self.scale)))

    def build(self) -> Any:
        from repro.core.normalization import Domain
        from repro.obs.telemetry import Telemetry
        from repro.streams import JoinQuery, StreamEngine

        engine = StreamEngine(seed=0, telemetry=Telemetry.disabled())
        a, b = Domain.of_size(1024), Domain.of_size(256)
        engine.create_relation("R1", ["A"], [a])
        engine.create_relation("R2", ["A", "B"], [a, b])
        engine.create_relation("R3", ["B"], [b])
        engine.create_relation("R4", ["A"], [a])
        self.counts = {rel: np.zeros(shape, dtype=np.int64) for rel, shape in self.SHAPES.items()}
        for rel in self.SHAPES:
            rows = self.rows(rel, 0, max(1024, int((1 << 17) * self.scale)))
            engine.ingest_batch(rel, rows)
            self.counts[rel] += bincount(rows, self.SHAPES[rel])
        pair = JoinQuery.parse(["R1", "R2"], ["R1.A = R2.A"])
        chain = JoinQuery.parse(["R1", "R2", "R3"], ["R1.A = R2.A", "R2.B = R3.B"])
        for m in self.METHODS:
            engine.register_query(f"j_{m}", pair, method=m, budget=self.BUDGET, bounds=True)
        for m in self.CHAIN:
            engine.register_query(f"c_{m}", chain, method=m, budget=self.BUDGET, bounds=True)
        engine.register_range_query("range", "R1", "A", *self.RANGE, budget=self.BUDGET)
        engine.register_band_query("band", ("R1", "A"), ("R2", "A"), self.BAND,
                                   budget=self.BUDGET)
        engine.register_query("empty", JoinQuery.parse(["R1", "R4"], ["R1.A = R4.A"]),
                              method="cosine", budget=self.BUDGET, bounds=True)
        rel, rows = self.insert(0)
        engine.ingest_batch(rel, rows)
        self.counts[rel] += bincount(rows, self.SHAPES[rel])
        return engine

    def round(self, engine: Any, r: int, ops: Ops) -> None:
        first = (r - 1) * self.ESTIMATES_PER_ROUND
        for e in range(first, first + self.ESTIMATES_PER_ROUND):
            name, mode = self.PAIRS[e % len(self.PAIRS)]
            ops.run("answer", engine.estimate, name, mode, known=(name, mode) in self.KNOWN_BUGS)
        rel, rows = self.insert(r)
        if ops.run("ingest", engine.ingest_batch, rel, rows, tuples=len(rows)) is not FAILED:
            self.counts[rel] += bincount(rows, self.SHAPES[rel])

    def exact(self) -> dict[str, float]:
        c1, c2, c3 = self.counts["R1"], self.counts["R2"], self.counts["R3"]
        a2 = c2.sum(axis=1)
        prefix = np.concatenate([[0], np.cumsum(a2)])
        idx = np.arange(a2.shape[0])
        window = (prefix[np.minimum(idx + self.BAND + 1, a2.shape[0])]
                  - prefix[np.maximum(idx - self.BAND, 0)])
        lo, hi = self.RANGE
        return {"j": float(c1 @ a2), "c": float(c1 @ c2 @ c3), "range": float(c1[lo:hi + 1].sum()),
                "band": float(c1 @ window), "empty": 0.0}

    def check(self, engine: Any, r: int, ops: Ops, k: int) -> None:
        exact = self.exact()
        truth = {name: exact[name.split("_")[0]] for name in self.labels}
        for name in [*(f"j_{m}" for m in self.METHODS), *(f"c_{m}" for m in self.CHAIN), "empty"]:
            bound = engine.estimate(name, "upper_bound")
            ops.expect(truth[name] <= bound * (1 + TOL),
                       f"round {r}: {name} exact {truth[name]} > upper bound {bound}")
        pairs = []
        for name in self.labels:
            if name == "empty":
                continue
            try:
                est = engine.answer(name)
            except Exception as exc:
                ops.fail(f"check: round {r}: {name}: {type(exc).__name__}: {exc}")
                continue
            pairs.append((est, truth[name]))
            if name == "j_cosine":
                c1, c2 = self.counts["R1"], self.counts["R2"]
                eq47 = eq47_bound(c1.sum(), c2.sum(), 1024, cosine_order(self.BUDGET, 2))
                ops.expect(abs(truth[name] - est) <= eq47 * (1 + TOL),
                           f"round {r}: j_cosine {est} breaks Eq. 4.7 around {truth[name]}")
        ops.errors_at(k, pairs)

    def finish(self, engine: Any, ops: Ops, rounds: int, full: bool) -> dict[str, Any]:
        return {"state_bytes": engine.save_checkpoint(self.work / "final.ckpt")}


#: The (query, mode) pairs the estimates cycle through.
EngineUniformQueries.PAIRS = (
    [(f"j_{m}", mode) for m in EngineUniformQueries.METHODS for mode in EngineUniformQueries.MODES]
    + [(f"c_{m}", mode) for m in EngineUniformQueries.CHAIN for mode in EngineUniformQueries.MODES]
    + [("range", "answer"), ("band", "answer")]
    + [("empty", mode) for mode in EngineUniformQueries.MODES]
)
#: Pairs that raise ``ValueError: synopsis is empty`` today (cosine over a
#: relation that holds nothing); counted as known failures (see :class:`Ops`).
EngineUniformQueries.KNOWN_BUGS = {("empty", "answer"), ("empty", "clamped")}


class FleetProcessUniform(ClosedLoop):
    """Two process shards, uniform batches, periodic fleet checkpoints.

    Domain 16384 rather than larger: every cosine registration builds an
    ``order x domain`` basis table (128 MB here, 512 MB at 65536), once in
    the merge template and once per shard, on every set-up.
    """

    name = "fleet_process_uniform"
    rate = 8.0
    sharded = True
    DOMAIN = 16384
    BUDGET = 1024
    SAMPLE_P = 0.05
    labels = {"samp": "sample"}  # the only query answered by an in-process StreamEngine
    ANSWERS = (("cos", "answer"), ("cos", "upper_bound"), ("hist", "answer"), ("samp", "answer"))

    def batch(self, b: int) -> np.ndarray:
        return uniform_rows(self.seed, 5, b, max(64, int(8192 * self.scale)), (self.DOMAIN,))

    def register(self, engine: Any, queries: tuple[str, ...]) -> None:
        from repro.core.normalization import Domain
        from repro.streams import JoinQuery

        for rel in ("R1", "R2"):
            engine.create_relation(rel, ["A"], [Domain.of_size(self.DOMAIN)])
        query = JoinQuery.parse(["R1", "R2"], ["R1.A = R2.A"])
        specs = {"cos": dict(method="cosine", bounds=True), "hist": dict(method="histogram"),
                 "samp": dict(method="sample", probability=self.SAMPLE_P)}
        for name in queries:
            engine.register_query(name, query, budget=self.BUDGET, **specs[name])

    def build(self) -> Any:
        from repro.sharding import ShardedStreamEngine

        fleet = ShardedStreamEngine(num_shards=2, seed=0, executor="process")
        self.register(fleet, ("cos", "hist", "samp"))
        self.counts = {rel: np.zeros(self.DOMAIN, dtype=np.int64) for rel in ("R1", "R2")}
        self.parity: list[tuple[int, dict[str, Any]]] = []
        rows = self.batch(0)
        fleet.ingest_batch("R1", rows)
        self.counts["R1"] += np.bincount(rows[:, 0], minlength=self.DOMAIN)
        return fleet

    def close(self, fleet: Any) -> None:
        fleet.close()

    def round(self, fleet: Any, r: int, ops: Ops) -> None:
        rel = "R1" if r % 2 == 0 else "R2"
        rows = self.batch(r)
        if ops.run("ingest", fleet.ingest_batch, rel, rows, tuples=len(rows)) is not FAILED:
            self.counts[rel] += np.bincount(rows[:, 0], minlength=self.DOMAIN)
        self.last = {f"{name}/{mode}": ops.run("answer", fleet.estimate, name, mode)
                     for name, mode in self.ANSWERS}
        if r % self.check_every == 0:
            ops.run("checkpoint", fleet.save_checkpoints, self.work / "ckpt", 2)

    def check(self, fleet: Any, r: int, ops: Ops, k: int) -> None:
        c1, c2 = self.counts["R1"], self.counts["R2"]
        exact = float(c1 @ c2)
        bound, est = self.last["cos/upper_bound"], self.last["cos/answer"]
        if bound is not FAILED:
            ops.expect(exact <= bound * (1 + TOL), f"round {r}: exact {exact} > upper bound {bound}")
        if est is not FAILED:
            eq47 = eq47_bound(c1.sum(), c2.sum(), self.DOMAIN, cosine_order(self.BUDGET, 1))
            ops.expect(abs(exact - est) <= eq47 * (1 + TOL),
                       f"round {r}: cosine {est} breaks Eq. 4.7 around {exact}")
        ops.errors_at(k, [(self.last[f"{n}/answer"], exact) for n in ("cos", "hist", "samp")
                          if self.last[f"{n}/answer"] is not FAILED])
        self.parity.append((r, dict(self.last)))
        if self.tracing:
            self.collect(fleet)

    def collect(self, fleet: Any) -> None:
        self.groups.extend(event_dicts(fleet.drain_spans()))

    def finish(self, fleet: Any, ops: Ops, rounds: int, full: bool) -> dict[str, Any]:
        final = self.work / "final"
        fleet.save_checkpoints(final, keep=1)
        details: dict[str, Any] = {
            "state_bytes": sum(p.stat().st_size for p in final.rglob("*") if p.is_file()),
        }
        details.update(replay_parity(self, rounds, full, ops))
        return details


def replay_parity(w: FleetProcessUniform, rounds: int, full: bool, ops: Ops) -> dict[str, Any]:
    """Replay the fleet's stream into one engine; compare at every check point.

    Histogram answers must be bit-identical to the single engine.  With
    ``full`` (traced runs) every query is replayed: cosine must agree within
    1e-9 relative and the sample, kept on the coordinator replica, exactly.
    The replay's ingest time is the single-threaded baseline.
    """
    from repro.obs.telemetry import Telemetry
    from repro.streams import StreamEngine

    engine = StreamEngine(seed=0, telemetry=Telemetry.disabled())
    w.register(engine, ("cos", "hist", "samp") if full else ("hist",))
    checks = dict(w.parity)
    seconds = 0.0
    distinct = rows_total = 0
    for r in range(rounds + 1):
        rows = w.batch(r)
        start = perf_counter()
        engine.ingest_batch("R1" if r % 2 == 0 else "R2", rows)
        seconds += perf_counter() - start
        if full and r:
            distinct += np.unique(rows).size
            rows_total += len(rows)
        fleet = checks.get(r)
        if fleet is None:
            continue
        expected = {"hist/answer": engine.answer("hist")}
        if full:
            expected["samp/answer"] = engine.answer("samp")
        for key, value in expected.items():
            if fleet[key] is not FAILED:
                ops.expect(fleet[key] == value, f"round {r}: fleet {key} {fleet[key]} != {value}")
        if full and fleet["cos/answer"] is not FAILED:
            value = engine.answer("cos")
            ops.expect(abs(fleet["cos/answer"] - value) <= 1e-9 * max(abs(value), 1.0),
                       f"round {r}: fleet cosine {fleet['cos/answer']} != {value}")
    out: dict[str, Any] = {"replay_s": seconds}
    if full:
        out.update(single_engine_s=seconds, input_distinct_frac=distinct / max(rows_total, 1))
    return out


# ---------------------------------------------------------------------- #
# open loop through the serve daemon
# ---------------------------------------------------------------------- #


class ServeOpenLoop:
    """The ``serve`` daemon fed on a fixed schedule over one pipelined connection.

    Every 100 ms cycle has one Zipf batch and four queries, one of each
    query kind: 10 batches and 40 queries a second, about a quarter of the
    daemon's closed-loop capacity (15 ms per batch and 2-3 ms per query on
    the reference box).  That headroom keeps the daemon ahead of the
    schedule even when a slow phase of the host triples its service times;
    at twice this load, such a phase outran it and requests queued past
    the 5 s timeout.  Requests are timed from their due time, so a stall
    also delays every request queued behind it.  Queries are due 30 ms or
    more after the batch before them, about twice the batch's median
    service time, so they queue behind it only when the host or the
    daemon slows down.
    """

    name = "serve_open_loop"
    DOMAIN = 4096
    BUDGET = 256
    SAMPLE_P = 0.05
    CYCLE_S = 0.1
    #: ``(due time within the cycle, op kind)`` of each op of a cycle.
    CYCLE = ((0.0, "ingest"), (0.030, "answer"), (0.045, "answer"), (0.060, "answer"),
             (0.075, "answer"))
    QUERIES = (("cos", "clamped"), ("agms", "answer"), ("hist", "answer"), ("samp", "answer"))
    labels = {"samp": "sample"}

    def __init__(self, seed: int, scale: float, work: Path) -> None:
        self.seed = seed
        self.scale = scale
        self.work = work
        self.daemons = 0

    def batch(self, b: int) -> np.ndarray:
        return zipf_rows(self.seed, 6, b, max(16, int(1024 * self.scale)), self.DOMAIN)

    def plan(self, cycles: int) -> list[tuple[str, dict[str, Any], int, float]]:
        """Every op of ``cycles`` cycles: ``(kind, request, batch index, due offset)``.

        Batches are numbered from 1 (batch 0 is the set-up's warm-up).
        """
        out = []
        batches = queries = 0
        for c in range(cycles):
            for offset, kind in self.CYCLE:
                due = c * self.CYCLE_S + offset
                if kind == "ingest":
                    batches += 1
                    rel = "R1" if batches % 2 == 0 else "R2"
                    request = {"op": "ingest", "relation": rel,
                               "rows": self.batch(batches).tolist()}
                    out.append((kind, request, batches, due))
                else:
                    name, mode = self.QUERIES[queries % len(self.QUERIES)]
                    queries += 1
                    out.append((kind, {"op": "query", "name": name, "mode": mode}, 0, due))
        return out

    def start(self, seconds: float, dump: Path | None = None) -> tuple[Any, int, float]:
        """Launch a daemon, register the queries, ingest batch 0: the set-up."""
        from repro.fleet.client import FleetClient

        self.daemons += 1
        out = self.work / f"daemon-{self.daemons}.out"
        serve = ["serve", "--shards", "2", "--executor", "socket", "--seed", "0",
                 "--max-seconds", str(seconds + 120)]
        if dump is None:
            cmd = [sys.executable, "-m", "repro.experiments.cli", *serve]
        else:
            cmd = [sys.executable, str(HERE / "serve_traced.py"), str(dump),
                   json.dumps(self.labels), *serve]
        start = perf_counter()
        with open(out, "w") as stdout, open(out.with_suffix(".err"), "w") as stderr:
            proc = subprocess.Popen(cmd, stdout=stdout, stderr=stderr)
        try:
            port = self._port(proc, out)
            with FleetClient("127.0.0.1", port) as client:
                for rel in ("R1", "R2"):
                    client.create_relation(rel, ["A"], [{"low": 0, "size": self.DOMAIN}])
                base = {"kind": "join", "relations": ["R1", "R2"],
                        "predicates": ["R1.A = R2.A"], "budget": self.BUDGET}
                client.register("cos", {**base, "method": "cosine", "options": {"bounds": True}})
                client.register("agms", {**base, "method": "basic_sketch"})
                client.register("hist", {**base, "method": "histogram"})
                client.register("samp", {**base, "method": "sample",
                                          "options": {"probability": self.SAMPLE_P}})
                client.ingest("R1", self.batch(0).tolist())
        except BaseException:
            self.stop(proc)
            raise
        return proc, port, perf_counter() - start

    def _port(self, proc: Any, out: Path) -> int:
        deadline = perf_counter() + 60
        while perf_counter() < deadline:
            text = out.read_text()
            if "serving" in text:
                return int(text.split(" at ", 1)[1].split()[0].rsplit(":", 1)[1])
            if proc.poll() is not None:
                raise RuntimeError(f"serve daemon exited: {out.with_suffix('.err').read_text()}")
            time.sleep(0.005)
        raise RuntimeError("serve daemon did not report its port within 60 s")

    def stop(self, proc: Any) -> None:
        """SIGINT (the daemon closes its fleet cleanly), then wait."""
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()

    def open_loop(self, port: int, seconds: float, rec: Recorder | None = None) -> dict[str, Any]:
        """Send every op at its due time from one thread, read replies in another."""
        plan = self.plan(max(1, round(seconds * self.scale / self.CYCLE_S)))
        n = len(plan)
        payloads = [(json.dumps({**payload, "id": j}) + "\n").encode()
                    for j, (_kind, payload, _b, _due) in enumerate(plan)]
        sent, acked = [0.0] * n, [0.0] * n
        replies: list[dict[str, Any] | None] = [None] * n
        span = rec.span if rec is not None else lambda name: nullcontext()
        sock = socket.create_connection(("127.0.0.1", port))
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(60)
        reader = sock.makefile("rb")
        t0 = perf_counter() + 0.05
        due = [t0 + offset for _kind, _payload, _b, offset in plan]

        def sender() -> None:
            try:
                for j in range(n):
                    delay = due[j] - perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    with span("fleet.sender"):
                        sent[j] = perf_counter()
                        sock.sendall(payloads[j])
            except OSError:
                pass  # the receiver saw the failure; unsent ops count as failed

        thread = threading.Thread(target=sender, name="layered-sender")
        thread.start()
        try:
            for j in range(n):
                with span("fleet.receiver"):
                    line = reader.readline()
                acked[j] = perf_counter()
                if not line:
                    break
                replies[j] = json.loads(line)
        except OSError:
            pass  # a stalled or closed connection: the missing replies are failures
        finally:
            try:
                sock.shutdown(socket.SHUT_RDWR)  # unblocks a sender stuck in sendall
            except OSError:
                pass
            thread.join()
            reader.close()
            sock.close()
        return {"plan": plan, "due": due, "sent": sent, "acked": acked, "replies": replies}

    def verify(self, log: dict[str, Any], ops: Ops, full: bool) -> float:
        """Latencies, failures and checks from one open-loop log; returns the replay time.

        The single connection applies requests in send order, so the
        queries after batch ``b`` saw exactly batches ``0..b``: a one-engine
        replay of that prefix must give bit-identical AGMS and histogram
        answers (and, with ``full``, matching cosine and sample answers).
        """
        from repro.core.normalization import Domain
        from repro.obs.telemetry import Telemetry
        from repro.streams import JoinQuery, StreamEngine

        engine = StreamEngine(seed=0, telemetry=Telemetry.disabled())
        for rel in ("R1", "R2"):
            engine.create_relation(rel, ["A"], [Domain.of_size(self.DOMAIN)])
        query = JoinQuery.parse(["R1", "R2"], ["R1.A = R2.A"])
        engine.register_query("agms", query, method="basic_sketch", budget=self.BUDGET)
        engine.register_query("hist", query, method="histogram", budget=self.BUDGET)
        if full:
            engine.register_query("cos", query, method="cosine", budget=self.BUDGET, bounds=True)
            engine.register_query("samp", query, method="sample", budget=self.BUDGET,
                                  probability=self.SAMPLE_P)
        counts = {rel: np.zeros(self.DOMAIN, dtype=np.int64) for rel in ("R1", "R2")}
        replay_s = 0.0

        def ingest(rel: str, rows: np.ndarray) -> None:
            nonlocal replay_s
            start = perf_counter()
            engine.ingest_batch(rel, rows)
            replay_s += perf_counter() - start
            counts[rel] += np.bincount(rows[:, 0], minlength=self.DOMAIN)

        ingest("R1", self.batch(0))
        distinct = rows_total = 0
        check = 0
        checking = False
        last_ack = log["due"][0]
        for j, (kind, payload, b, _due) in enumerate(log["plan"]):
            ops.attempted += 1
            reply = log["replies"][j]
            if reply is None or not reply.get("ok"):
                ops.fail(f"op {j}: {'no reply' if reply is None else reply.get('error')}")
                continue
            latency = log["acked"][j] - log["due"][j]
            if kind == "ingest":
                rows = self.batch(b)
                ingest(payload["relation"], rows)
                distinct += np.unique(rows).size
                rows_total += len(rows)
                ops.tuples += len(rows)
                last_ack = log["acked"][j]
                checking = b % 16 == 0
                check += checking
            if latency > TIMEOUT_S:
                ops.fail(f"op {j}: acknowledged {latency:.1f} s after its due time")
                continue
            ops.latency[kind].append(latency)
            if kind != "answer" or not checking:
                continue
            name, value = payload["name"], reply["value"]
            c1, c2 = counts["R1"], counts["R2"]
            exact = float(c1 @ c2)
            if name == "cos":
                bound = reply["bound"]["upper_bound"]
                ops.expect(exact <= bound * (1 + TOL), f"op {j}: exact {exact} > bound {bound}")
                eq47 = eq47_bound(c1.sum(), c2.sum(), self.DOMAIN, cosine_order(self.BUDGET, 1))
                ops.expect(abs(exact - value) <= eq47 * (1 + TOL),
                           f"op {j}: cosine {value} breaks Eq. 4.7 around {exact}")
                if full:
                    expected = engine.estimate("cos", "clamped")
                    ops.expect(abs(value - expected) <= 1e-9 * max(abs(expected), 1.0),
                               f"op {j}: served cosine {value} != {expected}")
                continue
            if name != "samp" or full:
                expected = engine.answer(name)
                ops.expect(value == expected, f"op {j}: served {name} {value} != {expected}")
            ops.errors_at(check, [(value, exact)])
        span = last_ack - log["due"][0]
        self.ingest_tps = ops.tuples / span if span > 0 else 0.0
        self.distinct_frac = distinct / max(rows_total, 1)
        return replay_s

    def run(self, seconds: float, trace: bool, setups: tuple[int, int]
            ) -> tuple[Ops, dict[str, Any], dict[str, Any]]:
        if not trace:
            before, after = setups
            setup_times = []
            for i in range(before + after):
                proc, port, setup_s = self.start(seconds)
                setup_times.append(setup_s)
                try:
                    if i == before - 1:
                        log = self.open_loop(port, seconds)
                finally:
                    self.stop(proc)
            ops = Ops()
            replay_s = self.verify(log, ops, full=False)
            values = end_to_end(ops, setup_times, max(log["acked"]) - log["due"][0], None)
            values["ingest_tps"] = self.ingest_tps
            return ops, values, {"setup_times": setup_times, "replay_s": replay_s,
                                 "generator_lag_p99_ms": percentile(_lags(log), 99) * 1e3}

        proc, port, _ = self.start(seconds)
        try:
            log_a = self.open_loop(port, seconds / 2)
        finally:
            self.stop(proc)
        untraced = Ops()
        self.verify(log_a, untraced, full=False)
        rec = Recorder()
        dump = self.work / "daemon-spans.json"
        with installed(rec):
            proc, port, _ = self.start(seconds, dump)
            try:
                log = self.open_loop(port, seconds / 2, rec)
            finally:
                self.stop(proc)
        ops = Ops()
        replay_s = self.verify(log, ops, full=True)
        ops.merge(untraced)
        data = json.loads(dump.read_text())
        t0 = log["due"][0] - 0.05
        spans = [s for s in map(Span.from_list, data["spans"]) if s.start >= t0]
        groups = [(res, [e for e in events if e["start"] >= t0]) for res, events in data["groups"]]
        client = _service(log)
        busy = [(s, a) for s, a in zip(log["sent"], log["acked"]) if a > s > 0]
        wall = max(log["acked"]) - log["due"][0]
        ctx = {
            "sharded": True,
            "client": {**client, "lag": _lags(log)},
            "trace_overhead": _mean_service(log) / _mean_service(log_a) - 1.0,
            "span_coverage": union_length(busy) / wall if wall > 0 else 0.0,
            "single_engine_s": replay_s,
            "input_distinct_frac": self.distinct_frac,
        }
        values = layer_metrics(spans, groups, ctx)
        return ops, values, {"layers": layer_table(spans), "client_layers": layer_table(rec.spans)}


def _lags(log: dict[str, Any]) -> list[float]:
    return [s - d for s, d in zip(log["sent"], log["due"]) if s > 0]


def _service(log: dict[str, Any]) -> dict[str, list[float]]:
    """Client-observed service time (send to acknowledgement) per op kind."""
    out: dict[str, list[float]] = {"ingest": [], "query": []}
    for (kind, _payload, _b, _due), s, a, reply in zip(log["plan"], log["sent"], log["acked"],
                                                       log["replies"]):
        if reply is not None and reply.get("ok"):
            out["ingest" if kind == "ingest" else "query"].append(a - s)
    return out


def _mean_service(log: dict[str, Any]) -> float:
    times = [t for values in _service(log).values() for t in values]
    return sum(times) / len(times) if times else float("nan")


# ---------------------------------------------------------------------- #
# entry point
# ---------------------------------------------------------------------- #

WORKLOADS: dict[str, Any] = {cls.name: cls for cls in (
    EngineZipfIngest, EngineUniformQueries, FleetProcessUniform, ServeOpenLoop)}


def _jsonable(obj: Any) -> Any:
    return obj.item() if hasattr(obj, "item") else str(obj)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one layered-benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    # A shell that starts the benchmark in the background makes it ignore
    # SIGINT, and an ignored signal stays ignored in every child.  The serve
    # daemon is stopped with SIGINT, so handle it here: a handled signal is
    # reset to its default in the programs this process starts.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    import repro

    if Path(repro.__file__).resolve().parents[1] != SRC:
        raise SystemExit(f"error: repro imported from {repro.__file__}, not from {SRC}")
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    trace = bool(args.trace)
    setups = (SETUPS_BEFORE, SETUPS_AFTER) if args.scale >= 1 else (1, 0)
    try:
        w = WORKLOADS[args.workload](args.seed, args.scale, work)
        if isinstance(w, ServeOpenLoop):
            ops, values, details = w.run(args.seconds, trace, setups)
        else:
            ops, values, details = run_closed_loop(w, args.seconds, trace, setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    details.update(checks=ops.checks, errors=ops.errors, known_failures=sorted(ops.known_errors),
                   samples={kind: len(times) for kind, times in ops.latency.items()})
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "correct": ops.failed == 0, "attempted": ops.attempted, "failed": ops.failed,
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                    for m in metric_table(trace)},
        "values": values,
        "details": details,
    }
    print(json.dumps(result, default=_jsonable))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
