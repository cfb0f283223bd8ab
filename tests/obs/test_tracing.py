"""Tracing: span recording, ring-buffer bounds, and engine integration."""

import numpy as np
import pytest

from repro.core.normalization import Domain
from repro.obs import Telemetry, TraceContext, Tracer
from repro.streams import JoinQuery, StreamEngine


def make_engine(**telemetry_kwargs) -> StreamEngine:
    engine = StreamEngine(seed=0, telemetry=Telemetry(**telemetry_kwargs))
    domain = Domain.of_size(32)
    engine.create_relation("R1", ["A"], [domain])
    engine.create_relation("R2", ["A"], [domain])
    query = JoinQuery.parse(["R1", "R2"], ["R1.A = R2.A"])
    engine.register_query("q", query, method="cosine", budget=16)
    return engine


class TestTracer:
    def test_span_records_duration_and_attrs(self):
        tracer = Tracer()
        with tracer.span("work", count=7, relation="R1"):
            pass
        (event,) = tracer.events()
        assert event.name == "work"
        assert event.count == 7
        assert event.attrs == {"relation": "R1"}
        assert event.duration >= 0
        assert event.start > 0

    def test_span_records_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        assert [e.name for e in tracer.events()] == ["boom"]

    def test_emit_uses_caller_duration(self):
        tracer = Tracer()
        tracer.emit("observer_update", 0.125, count=3, method="cosine")
        (event,) = tracer.events()
        assert event.duration == 0.125
        assert event.attrs["method"] == "cosine"

    def test_ring_buffer_bounded_with_drop_accounting(self):
        tracer = Tracer(capacity=4)
        for i in range(10):
            tracer.emit(f"e{i}", 0.0)
        assert len(tracer) == 4
        assert tracer.emitted == 10
        assert tracer.dropped == 6
        assert [e.name for e in tracer.events()] == ["e6", "e7", "e8", "e9"]

    def test_filter_and_tail(self):
        tracer = Tracer()
        for name in ("a", "b", "a", "b", "a"):
            tracer.emit(name, 0.0)
        assert len(tracer.events("a")) == 3
        assert [e.name for e in tracer.tail(2)] == ["b", "a"]

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("work"):
            pass
        tracer.emit("work", 0.1)
        assert tracer.events() == [] and tracer.emitted == 0

    def test_clear(self):
        tracer = Tracer()
        tracer.emit("a", 0.0)
        tracer.clear()
        assert len(tracer) == 0 and tracer.emitted == 0

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            Tracer(capacity=0)

    def test_event_as_dict_flattens_attrs(self):
        tracer = Tracer()
        tracer.emit("x", 0.5, count=2, relation="R1")
        d = tracer.events()[0].as_dict()
        assert d["name"] == "x" and d["relation"] == "R1" and d["count"] == 2

    def test_snapshot_is_json_compatible(self):
        import json

        tracer = Tracer(capacity=8)
        tracer.emit("x", 0.5)
        payload = json.loads(json.dumps(tracer.snapshot()))
        assert payload["buffered"] == 1 and payload["recent"][0]["name"] == "x"


class TestTraceContext:
    def test_generate_makes_wellformed_ids(self):
        context = TraceContext.generate()
        assert len(context.trace_id) == 32
        assert len(context.span_id) == 16
        assert context.sampled is True
        assert context.trace_id != "0" * 32 and context.span_id != "0" * 16

    def test_generated_contexts_are_distinct(self):
        contexts = [TraceContext.generate() for _ in range(32)]
        assert len({c.trace_id for c in contexts}) == 32
        assert len({c.span_id for c in contexts}) == 32

    def test_child_keeps_trace_changes_span(self):
        parent = TraceContext.generate()
        child = parent.child()
        assert child.trace_id == parent.trace_id
        assert child.span_id != parent.span_id
        assert parent.child("ab" * 8).span_id == "ab" * 8

    def test_traceparent_round_trip(self):
        context = TraceContext.generate()
        header = context.to_traceparent()
        assert header == f"00-{context.trace_id}-{context.span_id}-01"
        assert TraceContext.from_traceparent(header) == context

    def test_unsampled_flag_round_trips(self):
        context = TraceContext(trace_id="ab" * 16, span_id="cd" * 8, sampled=False)
        header = context.to_traceparent()
        assert header.endswith("-00")
        assert TraceContext.from_traceparent(header).sampled is False

    @pytest.mark.parametrize(
        "header",
        [
            "",
            "not-a-traceparent",
            "00-" + "ab" * 16 + "-" + "cd" * 8,  # missing flags
            "ff-" + "ab" * 16 + "-" + "cd" * 8 + "-01",  # bad version
            "00-" + "0" * 32 + "-" + "cd" * 8 + "-01",  # zero trace id
            "00-" + "ab" * 16 + "-" + "0" * 16 + "-01",  # zero span id
            "00-" + "xy" * 16 + "-" + "cd" * 8 + "-01",  # non-hex trace id
            "00-" + "ab" * 16 + "-" + "cd" * 8 + "-zz",  # non-hex flags
        ],
    )
    def test_malformed_traceparent_raises(self, header):
        with pytest.raises(ValueError):
            TraceContext.from_traceparent(header)

    def test_constructor_validates_widths(self):
        with pytest.raises(ValueError, match="trace_id"):
            TraceContext(trace_id="abc", span_id="cd" * 8)
        with pytest.raises(ValueError, match="span_id"):
            TraceContext(trace_id="ab" * 16, span_id="short")


class TestPropagation:
    def test_spans_carry_tracer_context_identity(self):
        tracer = Tracer()
        tracer.emit("a", 0.0)
        tracer.emit("b", 0.0)
        first, second = tracer.events()
        assert first.trace_id == second.trace_id == tracer.context.trace_id
        assert first.parent_span_id == second.parent_span_id == tracer.context.span_id
        assert first.span_id != second.span_id

    def test_propagated_span_yields_adoptable_header(self):
        coordinator = Tracer()
        worker = Tracer()
        with coordinator.propagated_span("ingest_batch") as traceparent:
            worker.adopt(traceparent)
            worker.emit("shard_ingest", 0.001)
        (parent_event,) = coordinator.events()
        (child_event,) = worker.events()
        assert child_event.trace_id == parent_event.trace_id
        assert child_event.parent_span_id == parent_event.span_id

    def test_propagated_span_yields_none_when_disabled(self):
        tracer = Tracer(enabled=False)
        with tracer.propagated_span("x") as traceparent:
            assert traceparent is None
        assert tracer.events() == []

    def test_propagated_span_yields_none_when_sampled_out(self):
        tracer = Tracer(sample_every=10**9, sample_seed=0)
        tracer.take()  # draw the long gap
        with tracer.propagated_span("x") as traceparent:
            assert traceparent is None

    def test_adopt_none_is_noop(self):
        tracer = Tracer()
        before = tracer.context
        tracer.adopt(None)
        assert tracer.context == before

    def test_adopt_malformed_is_loud(self):
        with pytest.raises(ValueError):
            Tracer().adopt("garbage")

    def test_drain_hands_over_once_and_clears(self):
        tracer = Tracer()
        tracer.emit("a", 0.0)
        tracer.emit("b", 0.0)
        drained = tracer.drain()
        assert [e.name for e in drained] == ["a", "b"]
        assert tracer.events() == [] and tracer.drain() == []
        assert tracer.dropped == 0  # drained events were delivered, not dropped
        assert tracer.emitted == 2

    def test_as_dict_includes_identity(self):
        tracer = Tracer()
        tracer.emit("x", 0.0)
        d = tracer.events()[0].as_dict()
        assert d["trace_id"] == tracer.context.trace_id
        assert d["parent_span_id"] == tracer.context.span_id


class TestEngineTracing:
    def test_batch_ingest_emits_spans(self):
        engine = make_engine()
        engine.ingest_batch("R1", np.arange(10, dtype=np.int64)[:, None] % 32)
        tracer = engine.telemetry.tracer
        (batch_event,) = tracer.events("ingest_batch")
        assert batch_event.count == 10
        assert batch_event.attrs == {"relation": "R1", "kind": "insert"}
        (observer_event,) = tracer.events("observer_update")
        assert observer_event.attrs["method"] == "cosine"
        assert observer_event.count == 10

    def test_answer_emits_estimate_span(self):
        engine = make_engine()
        engine.ingest_batch("R1", np.zeros((5, 1), dtype=np.int64))
        engine.ingest_batch("R2", np.zeros((5, 1), dtype=np.int64))
        engine.answer("q")
        (event,) = engine.telemetry.tracer.events("estimate")
        assert event.attrs == {"query": "q", "method": "cosine"}

    def test_tracing_off_keeps_metrics_on(self):
        engine = make_engine(tracing=False)
        engine.ingest_batch("R1", np.zeros((5, 1), dtype=np.int64))
        assert engine.telemetry.tracer is None
        assert engine.stats().tuples_ingested == 5

    def test_disabled_telemetry_hands_relations_nothing(self):
        engine = make_engine(enabled=False)
        relation = engine.relations["R1"]
        assert relation.stats is None and relation.tracer is None
        engine.ingest_batch("R1", np.zeros((5, 1), dtype=np.int64))
        engine.ingest_batch("R2", np.zeros((5, 1), dtype=np.int64))
        engine.answer("q")
        assert engine.stats().tuples_ingested == 0
        assert engine.stats().estimate_calls == 0

    def test_per_tuple_path_counts_but_does_not_trace_by_default(self):
        """Without sampling, per-tuple process stays span-free (too hot).

        Opting into 1-in-N sampling makes per-tuple spans affordable; see
        ``TestSampling`` for that path.
        """
        engine = make_engine()
        engine.insert("R1", (3,))
        assert engine.stats().per_tuple_ops == 1
        assert engine.telemetry.tracer.events() == []


class TestSampling:
    def test_sample_every_validated(self):
        with pytest.raises(ValueError, match="sample_every"):
            Tracer(sample_every=0)

    def test_sample_every_one_records_everything(self):
        tracer = Tracer(sample_every=1)
        for _ in range(20):
            tracer.emit("x", 0.0)
        assert tracer.emitted == 20 and tracer.sampled_out == 0

    def test_long_run_rate_is_one_in_n(self):
        tracer = Tracer(sample_every=8, sample_seed=0)
        taken = sum(tracer.take() for _ in range(8_000))
        assert taken == pytest.approx(1_000, rel=0.15)
        assert taken + tracer.sampled_out == 8_000

    def test_sampling_is_seeded_and_reproducible(self):
        decisions = [
            [Tracer(sample_every=5, sample_seed=7).take() for _ in range(100)]
            for _ in range(2)
        ]
        assert decisions[0] == decisions[1]

    def test_sampled_out_span_records_nothing(self):
        tracer = Tracer(sample_every=10**9, sample_seed=0)
        tracer.take()  # first take() draws the (astronomically long) gap
        with tracer.span("hot"):
            pass
        tracer.emit("hot", 0.1)
        assert tracer.events("hot") == []
        assert tracer.sampled_out == 2

    def test_record_bypasses_sampling(self):
        tracer = Tracer(sample_every=10**9, sample_seed=0)
        tracer.record("already_sampled", 0.25, relation="R1")
        (event,) = tracer.events()
        assert event.duration == 0.25 and event.attrs["relation"] == "R1"

    def test_clear_resets_sampling_state(self):
        tracer = Tracer(sample_every=50, sample_seed=0)
        for _ in range(200):
            tracer.take()
        tracer.clear()
        assert tracer.sampled_out == 0
        assert tracer.take() is True  # gap reset: next decision records

    def test_snapshot_reports_sampling_accounting(self):
        tracer = Tracer(sample_every=4, sample_seed=1)
        for _ in range(40):
            tracer.emit("x", 0.0)
        snap = tracer.snapshot()
        assert snap["sample_every"] == 4
        assert snap["sampled_out"] == tracer.sampled_out > 0
        assert "sample_every" not in Tracer().snapshot()

    def test_engine_sampling_traces_per_tuple_spans(self):
        engine = make_engine(trace_sample_every=1)
        engine.insert("R1", (3,))
        engine.delete("R1", (3,))
        tracer = engine.telemetry.tracer
        assert tracer.sample_every == 1
        events = tracer.events("ingest_batch")
        assert [e.attrs["kind"] for e in events] == ["insert", "delete"]
        assert all(e.attrs["relation"] == "R1" for e in events)
        assert all(e.count == 1 for e in events)
        assert len(tracer.events("observer_update")) == 2  # one cosine observer

    def test_engine_sampling_thins_observer_updates(self):
        engine = make_engine(trace_sample_every=64)
        rows = np.arange(512, dtype=np.int64)[:, None] % 32
        for lo in range(0, 512, 16):  # 32 batches -> ~1/64 sampled
            engine.ingest_batch("R1", rows[lo : lo + 16])
        tracer = engine.telemetry.tracer
        assert tracer.sampled_out > 0
        assert len(tracer.events()) < 64  # unsampled would be 64 events
        # Counters remain exact regardless of trace sampling.
        assert engine.stats().tuples_ingested == 512
