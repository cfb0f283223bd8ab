"""Spans around the program's public entry points, for traced runs only.

:func:`installed` swaps every entry point in :data:`ENTRY_POINTS` for a
wrapper that records one span per call -- name, start, end, parent span
and the benchmark op index as trace id -- into a :class:`Recorder`, and
puts every original back on exit.  Spans live in a thread-local stack in
memory and are turned into per-layer numbers at the end of the run.

Attributes that cost time to compute (distinct rows, pickled bytes) are
computed after the wrapped call returns; that time is charged to the
parent span as overhead so it never inflates any layer's self time.

A wrapper running in a process other than the one that installed it (a
forked shard worker) calls straight through: shard-side time comes from
the spans the program itself records, fetched with
``ShardedStreamEngine.drain_spans()``.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import itertools
import os
import pickle
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from common import percentile

AttrFn = Callable[["Recorder", tuple, dict, Any], "dict[str, Any]"]


class Span:
    """One recorded call; ``parent`` is the enclosing span's id or -1."""

    __slots__ = ("sid", "name", "parent", "trace", "thread", "start", "end", "attrs", "overhead")

    def __init__(self, sid: int, name: str, parent: int, trace: int, thread: int) -> None:
        self.sid = sid
        self.name = name
        self.parent = parent
        self.trace = trace
        self.thread = thread
        self.start = 0.0
        self.end = 0.0
        self.attrs: dict[str, Any] | None = None
        self.overhead = 0.0

    def as_list(self) -> list[Any]:
        return [self.sid, self.name, self.parent, self.trace, self.thread,
                self.start, self.end, self.attrs, self.overhead]

    @classmethod
    def from_list(cls, row: Sequence[Any]) -> "Span":
        span = cls(row[0], row[1], row[2], row[3], row[4])
        span.start, span.end, span.attrs, span.overhead = row[5], row[6], row[7], row[8]
        return span


class Recorder:
    """In-memory span store; ``trace_id`` is set by the op loop before each op."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.trace_id = -1
        #: Cleared while the benchmark runs its own checks.
        self.active = True
        #: Query name -> method label, for per-method answer latencies.
        self.labels: dict[str, str] = {}
        self.pid = os.getpid()
        self._local = threading.local()
        self._ids = itertools.count()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> tuple[Span, Span | None, list[Span]]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(next(self._ids), name, -1 if parent is None else parent.sid,
                    self.trace_id, threading.get_ident())
        stack.append(span)
        return span, parent, stack

    def call(self, name: str, fn: Callable[..., Any], args: tuple, kwargs: dict,
             attrs: AttrFn | None) -> Any:
        span, parent, stack = self._open(name)
        span.start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            stack.pop()
            self.spans.append(span)
        if attrs is not None:
            span.attrs = attrs(self, args, kwargs, result)
            if parent is not None:
                parent.overhead += perf_counter() - span.end
        return result

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[None]:
        """A benchmark-side span (an op, a send, a receive)."""
        if not self.active:
            yield
            return
        span, _parent, stack = self._open(name)
        span.attrs = attrs or None
        span.start = perf_counter()
        try:
            yield
        finally:
            span.end = perf_counter()
            stack.pop()
            self.spans.append(span)

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Record nothing inside (the benchmark's own checks)."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def dump(self) -> list[list[Any]]:
        return [span.as_list() for span in self.spans]


# ---------------------------------------------------------------------- #
# span attributes (computed after the call, charged as overhead)
# ---------------------------------------------------------------------- #


def _rows(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> dict[str, Any]:
    rows = args[2] if len(args) > 2 else kwargs["rows"]
    return {"rows": len(rows)}


def _label(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> dict[str, Any]:
    return {"label": rec.labels.get(args[1], "other")}


def _distinct(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> dict[str, Any]:
    rows = np.asarray(args[1])
    if rows.ndim == 2 and rows.shape[1] > 1:
        distinct = np.unique(rows, axis=0).shape[0]
    else:  # one column: the 1-d unique is several times faster
        distinct = np.unique(rows).shape[0]
    return {"rows": rows.shape[0], "distinct": distinct}


def _cells(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> dict[str, Any]:
    return {"cells": int(args[0]) * len(args[1])}


def _skew(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> dict[str, Any]:
    sizes = [part.shape[0] for part in result]
    mean = sum(sizes) / len(sizes)
    return {"skew": max(sizes) / mean if mean else 1.0}


def _scatter_bytes(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> dict[str, Any]:
    method, per_shard = args[1], args[2]
    return {"bytes": sum(
        len(pickle.dumps((method, *item))) for item in per_shard if item is not None
    )}


def _broadcast_bytes(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> dict[str, Any]:
    executor, method = args[0], args[1]
    return {"bytes": executor.num_shards * len(pickle.dumps((method, args[2:], kwargs)))}


def _paths_bytes(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> dict[str, Any]:
    return {"bytes": sum(os.path.getsize(path) for path in result)}


def _int_bytes(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> dict[str, Any]:
    return {"bytes": int(result)}


#: ``(module, attribute path, span name, attribute function)`` per wrapped
#: entry point.  ``phi_block``, ``split_rows`` and ``merge_observer_states``
#: are wrapped at their import sites, where the callers look them up.
ENTRY_POINTS: list[tuple[str, str, str, AttrFn | None]] = [
    ("repro.streams.engine", "ContinuousQueryEngine.ingest_batch", "streams.ingest_batch", _rows),
    ("repro.streams.engine", "ContinuousQueryEngine.answer", "streams.answer", _label),
    ("repro.streams.engine", "ContinuousQueryEngine.estimate", "streams.estimate", None),
    ("repro.core.synopsis", "CosineSynopsis.insert_batch", "core.cosine_update", _distinct),
    ("repro.core.synopsis", "CosineSynopsis.delete_batch", "core.cosine_update", _distinct),
    ("repro.core.synopsis", "phi_block", "fastpath.phi_block", _cells),
    ("repro.core.join", "phi_block", "fastpath.phi_block", _cells),
    ("repro.core.range_query", "phi_block", "fastpath.phi_block", _cells),
    ("repro.sketches.basic", "AGMSSketch.update_batch", "sketches.agms_update", _distinct),
    ("repro.sampling.reservoir", "BernoulliSample.insert_batch", "sampling.insert", None),
    ("repro.histograms.equiwidth", "EquiWidthHistogram.update_batch", "histograms.update", None),
    ("repro.wavelets.haar", "HaarSynopsis.update_batch", "wavelets.update", None),
    ("repro.bounds.degree", "DegreeSketch.update_batch", "bounds.degree_update", None),
    ("repro.bounds.calculator", "JoinBoundCalculator.upper_bound", "bounds.upper_bound", None),
    ("repro.sharding.engine", "split_rows", "sharding.split_rows", _skew),
    ("repro.sharding.engine", "merge_observer_states", "sharding.merge", None),
    ("repro.sharding.executor", "ProcessExecutor.scatter", "sharding.scatter", _scatter_bytes),
    ("repro.sharding.executor", "ProcessExecutor.broadcast", "sharding.broadcast", _broadcast_bytes),
    ("repro.fleet.executor", "SocketExecutor.scatter", "sharding.scatter", _scatter_bytes),
    ("repro.fleet.executor", "SocketExecutor.broadcast", "sharding.broadcast", _broadcast_bytes),
    ("repro.sharding.engine", "ShardedStreamEngine.save_checkpoints", "resilience.checkpoint",
     _paths_bytes),
    ("repro.streams.engine", "ContinuousQueryEngine.save_checkpoint", "resilience.checkpoint",
     _int_bytes),
    ("repro.fleet.client", "FleetClient.request", "fleet.client_request", None),
]


def resolve(module: str, path: str) -> tuple[Any, str]:
    """``(owner, attribute name)`` for one entry point."""
    owner: Any = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _wrap(rec: Recorder, name: str, fn: Callable[..., Any], attrs: AttrFn | None) -> Any:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not rec.active or os.getpid() != rec.pid:
            return fn(*args, **kwargs)
        return rec.call(name, fn, args, kwargs, attrs)

    return wrapper


@contextmanager
def installed(rec: Recorder) -> Iterator[Recorder]:
    """Wrap every entry point for the duration; restore every original after."""
    undo: list[tuple[Any, str, Any, bool]] = []
    try:
        for module, path, name, attrs in ENTRY_POINTS:
            owner, attr = resolve(module, path)
            original = getattr(owner, attr)
            undo.append((owner, attr, original, attr in vars(owner)))
            setattr(owner, attr, _wrap(rec, name, original, attrs))
        yield rec
    finally:
        for owner, attr, original, own in reversed(undo):
            if own:
                setattr(owner, attr, original)
            else:  # inherited (``broadcast``): uncover the base class's again
                delattr(owner, attr)


def event_dicts(groups: list[tuple[dict, list[Any]]]) -> list[tuple[dict, list[dict]]]:
    """``drain_spans()`` output with each ``SpanEvent`` as a plain dict."""
    return [(dict(res), [{"name": e.name, "start": e.start, "duration": e.duration,
                          "count": e.count, "attrs": dict(e.attrs)} for e in events])
            for res, events in groups]


# ---------------------------------------------------------------------- #
# self time
# ---------------------------------------------------------------------- #

#: ``(child, parent)`` span names whose child is part of the parent's own
#: work: ``broadcast`` is implemented as one ``scatter``, so the executor
#: layer is the pair, not the inner call alone.
FOLDED = {("sharding.scatter", "sharding.broadcast")}


def union_length(intervals: Sequence[tuple[float, float]]) -> float:
    """Total length covered by a set of (possibly overlapping) intervals."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def overlap_length(a: Sequence[tuple[float, float]], b: Sequence[tuple[float, float]]) -> float:
    """Length of ``union(a) & union(b)``."""
    return union_length(a) + union_length(b) - union_length([*a, *b])


def self_times(spans: Sequence[Span]) -> tuple[dict[int, float], set[int]]:
    """Each span's duration minus the time its child spans cover.

    Returns ``(self time by span id, ids of folded spans)``.
    """
    by_id = {span.sid: span for span in spans}
    covered: dict[int, list[tuple[float, float]]] = defaultdict(list)
    folded: set[int] = set()
    for span in spans:
        parent = by_id.get(span.parent)
        if parent is None:
            continue
        if (span.name, parent.name) in FOLDED:
            folded.add(span.sid)
        else:
            covered[parent.sid].append((span.start, span.end))
    selfs = {
        span.sid: max(0.0, span.end - span.start - union_length(covered[span.sid]) - span.overhead)
        for span in spans
    }
    return selfs, folded


class Agg:
    """Per-span-name totals."""

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_s = 0.0
        self.durations: list[float] = []
        self.sums: dict[str, float] = defaultdict(float)
        self.by_label: dict[str, list[float]] = defaultdict(list)


def aggregate(spans: Sequence[Span]) -> dict[str, Agg]:
    """Calls, total, self time, durations and attribute sums per span name."""
    selfs, folded = self_times(spans)
    out: dict[str, Agg] = defaultdict(Agg)
    for span in spans:
        if span.sid in folded:
            continue
        agg = out[span.name]
        duration = span.end - span.start
        agg.calls += 1
        agg.total += duration
        agg.self_s += selfs[span.sid]
        agg.durations.append(duration)
        for key, value in (span.attrs or {}).items():
            if key == "label":
                agg.by_label[value].append(duration)
            elif isinstance(value, (int, float)):
                agg.sums[key] += value
    return out


def layer_table(spans: Sequence[Span]) -> dict[str, dict[str, float]]:
    """The full per-span-name table printed by traced runs."""
    return {
        name: {"calls": agg.calls, "total_s": agg.total, "self_s": agg.self_s,
               "p50_us": percentile(agg.durations, 50) * 1e6, **agg.sums}
        for name, agg in sorted(aggregate(spans).items())
    }


# ---------------------------------------------------------------------- #
# spans -> the per-layer metrics of BENCHMARK.json
# ---------------------------------------------------------------------- #

#: Span names that are one synopsis update each.
SYNOPSIS_UPDATES = ("core.cosine_update", "sketches.agms_update", "sampling.insert",
                    "histograms.update", "wavelets.update", "bounds.degree_update")
#: Shard-side ``observer_update`` method -> the layer its time belongs to.
SHARD_OBSERVERS = {"cosine": "core.cosine_update", "basic_sketch": "sketches.agms_update",
                   "skimmed_sketch": "sketches.agms_update", "histogram": "histograms.update",
                   "bounds": "bounds.degree_update"}
ANSWER_LABELS = ("cosine", "basic_sketch", "skimmed_sketch", "sample", "histogram",
                 "wavelet", "partitioned_sketch", "cosine_range", "cosine_band")


def _contained_roots(roots: Sequence[Span], starts: list[float], lo: float, hi: float
                     ) -> list[tuple[float, float]]:
    i = bisect.bisect_left(starts, lo)
    out = []
    while i < len(roots) and roots[i].start <= hi:
        if roots[i].end <= hi:
            out.append((roots[i].start, roots[i].end))
        i += 1
    return out


def layer_metrics(spans: Sequence[Span], shard_groups: Sequence[tuple[dict, list[dict]]],
                  ctx: dict[str, Any]) -> dict[str, float]:
    """Per-layer numbers from in-process spans plus the program's drained spans.

    ``shard_groups`` is ``drain_spans()`` output with events as dicts
    (``name, start, duration, count, attrs``); ``ctx`` carries what the
    workload measured itself (client-side service times, the single-engine
    replay, trace overhead, span coverage, input distinct fraction).
    """
    agg = aggregate(spans)
    get = agg.get
    empty = Agg()
    shard_events = [e for res, events in shard_groups if res.get("shard") != "coordinator"
                    for e in events]
    coord_events = [e for res, events in shard_groups if res.get("shard") == "coordinator"
                    for e in events]
    shard_ingest = [e for e in shard_events if e["name"] == "ingest_batch"]
    shard_collect = [e for e in shard_events
                     if e["name"] == "estimate" and e["attrs"].get("phase") == "collect_state"]
    shard_obs: dict[str, list[dict]] = defaultdict(list)
    for e in shard_events:
        if e["name"] == "observer_update":
            shard_obs[SHARD_OBSERVERS.get(e["attrs"].get("method", ""), "other")].append(e)
    obs_s = sum(e["duration"] for group in shard_obs.values() for e in group)

    def layer(name: str) -> tuple[Agg, list[dict]]:
        return get(name, empty), shard_obs.get(name, [])

    m: dict[str, float] = {}
    ingest = get("streams.ingest_batch", empty)
    calls = ingest.calls + len(shard_ingest)
    m["streams.ingest_batch.calls"] = calls
    m["streams.ingest_batch.self_s"] = (
        ingest.self_s + sum(e["duration"] for e in shard_ingest) - obs_s
    )
    m["streams.ingest_batch.rows"] = ingest.sums["rows"] + sum(e["count"] for e in shard_ingest)
    updates = sum(get(n, empty).calls for n in SYNOPSIS_UPDATES) + sum(
        len(group) for group in shard_obs.values())
    m["streams.synopsis_updates_per_batch"] = updates / calls if calls else 0.0
    answer = get("streams.answer", empty)
    m["streams.answer.self_s"] = answer.self_s
    for label in ANSWER_LABELS:
        m[f"streams.answer.{label}.p50_us"] = percentile(answer.by_label.get(label, []), 50) * 1e6

    for name in ("core.cosine_update", "sketches.agms_update"):
        local, remote = layer(name)
        m[f"{name}.calls"] = local.calls + len(remote)
        m[f"{name}.self_s"] = local.self_s + sum(e["duration"] for e in remote)
        m[f"{name}.rows"] = local.sums["rows"] + sum(e["count"] for e in remote)
        m[f"{name}.distinct_frac"] = (
            local.sums["distinct"] / local.sums["rows"] if local.sums["rows"]
            else ctx.get("input_distinct_frac", 0.0) if remote else 0.0
        )
    phi = get("fastpath.phi_block", empty)
    m["fastpath.phi_block.calls"] = phi.calls
    m["fastpath.phi_block.self_s"] = phi.self_s
    m["fastpath.phi_block.cells"] = phi.sums["cells"]
    for name in ("sampling.insert", "histograms.update", "wavelets.update",
                 "bounds.degree_update"):
        local, remote = layer(name)
        m[f"{name}.self_s"] = local.self_s + sum(e["duration"] for e in remote)
    m["bounds.upper_bound.p50_us"] = percentile(get("bounds.upper_bound", empty).durations, 50) * 1e6

    split = get("sharding.split_rows", empty)
    m["sharding.split_rows.self_s"] = split.self_s
    m["sharding.split_rows.skew"] = split.sums["skew"] / split.calls if split.calls else 0.0
    scatter = [s for s in spans if s.name == "sharding.scatter"]
    busy = [(e["start"], e["start"] + e["duration"]) for e in shard_ingest + shard_collect]
    m["sharding.scatter.self_s"] = get("sharding.scatter", empty).self_s
    m["sharding.scatter.wait_s"] = overlap_length([(s.start, s.end) for s in scatter], busy)
    m["sharding.scatter.bytes"] = get("sharding.scatter", empty).sums["bytes"]
    broadcast = get("sharding.broadcast", empty)
    m["sharding.broadcast.self_s"] = broadcast.self_s
    m["sharding.broadcast.bytes"] = broadcast.sums["bytes"]
    merge = get("sharding.merge", empty)
    m["sharding.merge.calls"] = merge.calls
    m["sharding.merge.self_s"] = merge.self_s
    m["sharding.coordinator_ingest.self_s"] = ingest.total if ctx.get("sharded") else 0.0
    m["sharding.shard_ingest.busy_s"] = sum(e["duration"] for e in shard_ingest)
    m["sharding.shard_collect_state.busy_s"] = sum(e["duration"] for e in shard_collect)

    client = ctx.get("client", {})
    m["fleet.ingest.service_p50_ms"] = percentile(client.get("ingest", []), 50) * 1e3
    m["fleet.query.service_p50_us"] = percentile(client.get("query", []), 50) * 1e6
    requests = [e for e in coord_events if e["name"] == "serve_request"]
    roots = sorted((s for s in spans if s.parent == -1), key=lambda s: s.start)
    starts = [s.start for s in roots]
    engine_self: dict[str, float] = defaultdict(float)
    for e in requests:
        lo, hi = e["start"], e["start"] + e["duration"]
        inner = union_length(_contained_roots(roots, starts, lo, hi))
        engine_self[e["attrs"].get("op", "")] += e["duration"] - inner
    m["fleet.serve.engine_ingest.self_s"] = engine_self["ingest"]
    m["fleet.serve.engine_answer.self_s"] = engine_self["query"]
    served = sum(client.get("ingest", [])) + sum(client.get("query", []))
    m["fleet.serve.protocol_s"] = (
        served - sum(e["duration"] for e in requests if e["attrs"].get("op") in ("ingest", "query"))
        if requests else 0.0
    )
    m["fleet.generator_lag_p99_ms"] = percentile(client.get("lag", []), 99) * 1e3

    by_id = {s.sid: s for s in spans}

    def nested(span: Span) -> bool:
        parent = by_id.get(span.parent)
        while parent is not None:
            if parent.name == span.name:
                return True
            parent = by_id.get(parent.parent)
        return False

    top = [s for s in spans if s.name == "resilience.checkpoint" and not nested(s)]
    m["resilience.checkpoint.calls"] = len(top)
    m["resilience.checkpoint.self_s"] = get("resilience.checkpoint", empty).self_s
    m["resilience.checkpoint.bytes"] = sum((s.attrs or {}).get("bytes", 0) for s in top)

    m["bench.trace_overhead"] = ctx.get("trace_overhead", 0.0)
    m["bench.single_engine_s"] = ctx.get("single_engine_s", 0.0)
    m["bench.span_coverage"] = ctx.get("span_coverage", 0.0)
    return m
