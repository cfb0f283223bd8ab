"""Per-shard observability: shard labels, merged fleet registries."""

import numpy as np
import pytest

from repro.core.normalization import Domain
from repro.sharding import ShardedStreamEngine
from repro.streams import JoinQuery, StreamEngine
from repro.streams.stats import EngineStats
from repro.streams.tuples import OpKind

QUERY = JoinQuery.parse(["R1", "R2"], ["R1.A = R2.A"])


def build_fleet(num_shards=2, executor="serial"):
    fleet = ShardedStreamEngine(num_shards=num_shards, seed=0, executor=executor)
    domain = Domain.of_size(32)
    fleet.create_relation("R1", ["A"], [domain])
    fleet.create_relation("R2", ["A"], [domain])
    fleet.register_query("q", QUERY, method="cosine", budget=16)
    return fleet


def feed(fleet, n=200, seed=1):
    rng = np.random.default_rng(seed)
    fleet.ingest_batch("R1", rng.integers(0, 32, size=(n, 1)))
    fleet.ingest_batch("R2", rng.integers(0, 32, size=(n, 1)))


class TestShardLabel:
    def test_engine_stats_grows_shard_label(self):
        stats = EngineStats(shard="3")
        stats.record_ops(5, kind=OpKind.INSERT, batched=True, relation="R")
        family = stats.registry.get("repro_relation_ops_total")
        assert family.labelnames == ("relation", "shard")
        assert family.labels("R", "3").value == 5

    def test_unsharded_engine_keeps_single_labels(self):
        engine = StreamEngine(seed=0)
        family = engine.telemetry.registry.get("repro_relation_ops_total")
        assert family.labelnames == ("relation",)

    def test_reading_surface_unchanged_with_shard(self):
        engine = StreamEngine(seed=0, shard="1")
        engine.create_relation("R", ["A"], [Domain.of_size(8)])
        engine.ingest_batch("R", np.zeros((7, 1), dtype=np.int64))
        assert engine.stats().relation_ops == {"R": 7}
        assert engine.stats().tuples_ingested == 7


class TestFleetMetrics:
    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_per_shard_series_survive_the_merge(self, executor):
        with build_fleet(executor=executor) as fleet:
            feed(fleet)
            snap = fleet.fleet_metrics().snapshot()
        rel = snap["repro_relation_ops_total"]
        assert rel["labels"] == ["relation", "shard"]
        shard_keys = {k for k in rel["values"] if not k.endswith("coordinator")}
        assert len(shard_keys) >= 2  # both shards reported
        # per-shard R1 series sum back to the full relation count
        r1_total = sum(
            v for k, v in rel["values"].items()
            if k.startswith("R1,") and not k.endswith("coordinator")
        )
        assert r1_total == 200

    def test_fleet_counters_sum_across_shards(self):
        with build_fleet() as fleet:
            feed(fleet)
            merged = fleet.fleet_metrics()
        assert merged.counter("repro_ingest_ops_total").value == 400

    def test_replica_ingest_is_not_counted(self):
        with build_fleet() as fleet:
            fleet.register_query("samp", QUERY, method="sample", budget=16)
            feed(fleet)
            merged = fleet.fleet_metrics()
        assert merged.counter("repro_ingest_ops_total").value == 400
        assert merged.counter("repro_ingest_batched_ops_total").value == 400
        relation_ops = merged.get("repro_relation_ops_total")
        assert ("R1", "coordinator") not in dict(relation_ops.items())
        # The replica's own observers are still accounted for.
        sample_ops = merged.get("repro_observer_ops_total").labels("sample", "coordinator")
        assert sample_ops.value == 400
        sample_seconds = merged.get("repro_observer_seconds_total")
        assert sample_seconds.labels("sample", "coordinator").value > 0

    def test_restored_replica_ingest_is_not_counted(self, tmp_path):
        with build_fleet() as fleet:
            fleet.register_query("samp", QUERY, method="sample", budget=16)
            fleet.save_checkpoints(tmp_path)
        with ShardedStreamEngine.restore(tmp_path) as fleet:
            feed(fleet)
            merged = fleet.fleet_metrics()
        assert merged.counter("repro_ingest_ops_total").value == 400
        sample_ops = merged.get("repro_observer_ops_total").labels("sample", "coordinator")
        assert sample_ops.value == 400

    def test_shard_stats_lists_every_shard(self):
        with build_fleet(num_shards=3) as fleet:
            feed(fleet)
            stats = fleet.shard_stats()
        assert len(stats) == 3
        assert sum(s["tuples_ingested"] for s in stats) == 400


class TestFleetAnswerMetrics:
    """Fleet answers record what one engine's answers record, no more."""

    def test_disabled_telemetry_records_no_bound_metrics(self):
        with ShardedStreamEngine(num_shards=2, seed=0, telemetry=False) as fleet:
            domain = Domain.of_size(32)
            fleet.create_relation("R1", ["A"], [domain])
            fleet.create_relation("R2", ["A"], [domain])
            fleet.register_query("q", QUERY, method="basic_sketch", budget=16, bounds=True)
            feed(fleet)
            assert fleet.bound_report("q") is not None
            assert fleet.fleet_metrics().get("repro_bound_tightness_ratio") is None

    def test_mergeable_answers_are_counted_like_coordinator_answers(self):
        with build_fleet() as fleet:
            fleet.register_query("agms", QUERY, method="basic_sketch", budget=16)
            fleet.register_query("samp", QUERY, method="sample", budget=16)
            feed(fleet)
            fleet.answer("agms")
            fleet.answer("samp")
            snap = fleet.fleet_metrics().snapshot()
        served = snap["repro_query_estimates_total"]["values"]
        assert served == {"agms,coordinator": 1, "samp,coordinator": 1}
        assert snap["repro_estimate_latency_seconds"]["count"] == 2
