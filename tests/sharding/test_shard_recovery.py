"""Shard crash/recovery: per-shard checkpoints, restore, fault isolation.

The fleet-level analogue of ``tests/resilience/test_recovery.py``: kill
one shard at an arbitrary batch boundary, restore it from *its own*
checkpoint store (no other shard is touched), replay the remaining
batches — and every query answers exactly what an uncrashed fleet
answers.  Plus: full-fleet restore from the manifest, checkpoint writes
surviving injected filesystem faults, and observer quarantine degrading
only the affected shard's queries.
"""

import json
import math
import os
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro.core.normalization import Domain
from repro.resilience.chaos import CrashingIngest, FailingFilesystem, SimulatedCrash
from repro.resilience.errors import CheckpointError, DegradedQueryError
from repro.sharding import ShardedStreamEngine, ShardError
from repro.streams import JoinQuery

DOMAIN = 48
NUM_SHARDS = 3
QUERY = JoinQuery.parse(["R1", "R2"], ["R1.A = R2.A"])

ALL_METHODS = [
    "cosine",
    "basic_sketch",
    "skimmed_sketch",
    "sample",
    "histogram",
    "wavelet",
    "partitioned_sketch",
]
EXACT_METHODS = [m for m in ALL_METHODS if m != "cosine"]


def build_fleet(num_shards=NUM_SHARDS, seed=11, executor="serial"):
    fleet = ShardedStreamEngine(num_shards=num_shards, seed=seed, executor=executor)
    domain = Domain.of_size(DOMAIN)
    fleet.create_relation("R1", ["A"], [domain])
    fleet.create_relation("R2", ["A"], [domain])
    for method in ALL_METHODS:
        options = {"probability": 0.25} if method == "sample" else {}
        fleet.register_query(f"q_{method}", QUERY, method=method, budget=24, **options)
    fleet.register_range_query("q_range", "R1", "A", 10, 30, budget=24)
    return fleet


def make_batches(n_batches=8, batch_size=40, seed=5):
    rng = np.random.default_rng(seed)
    batches = []
    for i in range(n_batches):
        name = "R1" if i % 2 == 0 else "R2"
        rows = ((rng.zipf(1.4, size=batch_size) - 1) % DOMAIN)[:, None]
        batches.append((name, rows))
    return batches


def kill_shard(fleet, shard):
    """Simulate one shard process dying: its live engine state is lost."""
    worker = fleet._executor.workers[shard]
    worker.engine = worker._fresh_engine()


def assert_fleet_answers_equal(fleet, expected):
    for method in EXACT_METHODS:
        value = fleet.answer(f"q_{method}")
        want = expected[f"q_{method}"]
        assert value == want or (math.isnan(value) and math.isnan(want)), method
    for name in ("q_cosine", "q_range"):
        assert fleet.answer(name) == pytest.approx(expected[name], rel=1e-9)


class TestShardCrashRecoveryProperty:
    @pytest.mark.parametrize("crash_at", [1, 2, 4, 7, 8])
    @pytest.mark.parametrize("shard", [0, 2])
    def test_one_shard_crash_at_any_batch_boundary(self, tmp_path, crash_at, shard):
        batches = make_batches()

        control = build_fleet()
        for name, rows in batches:
            control.ingest_batch(name, rows)
        expected = control.answers()

        victim = build_fleet()
        ckpt_dir = tmp_path / f"fleet-{shard}-{crash_at}"
        for name, rows in batches[:crash_at]:
            victim.ingest_batch(name, rows)
            victim.save_checkpoints(ckpt_dir)

        kill_shard(victim, shard)
        restored_from = victim.restore_shard(shard, ckpt_dir)
        assert f"shard-{shard:02d}" in restored_from

        for name, rows in batches[crash_at:]:
            victim.ingest_batch(name, rows)
        assert_fleet_answers_equal(victim, expected)
        victim.close()
        control.close()

    def test_unrestored_crash_actually_loses_state(self, tmp_path):
        """The kill helper is a real fault: the dead shard cannot answer."""
        fleet = build_fleet()
        batches = make_batches()
        for name, rows in batches:
            fleet.ingest_batch(name, rows)
        kill_shard(fleet, 1)
        with pytest.raises(ShardError, match="shard 1"):
            fleet.total_count("R1")
        fleet.close()

    def test_full_fleet_restore_from_manifest(self, tmp_path):
        batches = make_batches(n_batches=6)
        control = build_fleet()
        fleet = build_fleet()
        for name, rows in batches[:4]:
            control.ingest_batch(name, rows)
            fleet.ingest_batch(name, rows)
        fleet.save_checkpoints(tmp_path)
        fleet.close()

        restored = ShardedStreamEngine.restore(tmp_path)
        assert restored.num_shards == NUM_SHARDS
        assert set(restored.query_names()) == set(control.query_names())
        for name, rows in batches[4:]:
            control.ingest_batch(name, rows)
            restored.ingest_batch(name, rows)
        assert_fleet_answers_equal(restored, control.answers())
        restored.close()
        control.close()

    @pytest.mark.parametrize("crash_at", [2, 5, 8])
    def test_whole_process_crash_restores_from_last_checkpoint(self, tmp_path, crash_at):
        """SimulatedCrash mid-stream: restore the fleet, replay, same answers."""

        class _FleetStore:
            def save(self, fleet):
                fleet.save_checkpoints(tmp_path)

        batches = make_batches()
        control = build_fleet()
        for name, rows in batches:
            control.ingest_batch(name, rows)

        fleet = build_fleet()
        driver = CrashingIngest(fleet, store=_FleetStore(), crash_at=crash_at)
        with pytest.raises(SimulatedCrash):
            driver.run(batches)
        applied = driver.batches_applied
        assert applied == crash_at - 1
        fleet.close()  # the dead process

        restored = ShardedStreamEngine.restore(tmp_path)
        for name, rows in batches[applied:]:
            restored.ingest_batch(name, rows)
        assert_fleet_answers_equal(restored, control.answers())
        restored.close()
        control.close()

    def test_checkpoint_write_survives_filesystem_faults(self, tmp_path):
        fleet = build_fleet()
        for name, rows in make_batches(n_batches=4):
            fleet.ingest_batch(name, rows)
        with FailingFilesystem(fail_replaces=2) as fs:
            fleet.save_checkpoints(tmp_path)
        assert fs.replace_calls > 2  # the retry path re-ran the rename
        restored = ShardedStreamEngine.restore(tmp_path)
        assert_fleet_answers_equal(restored, fleet.answers())
        restored.close()
        fleet.close()

    def test_restore_refuses_another_manifest_version(self, tmp_path):
        with build_fleet() as fleet:
            fleet.save_checkpoints(tmp_path)
        manifest_path = tmp_path / "fleet-manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert manifest["version"] == 3
        manifest["version"] = 2
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="unsupported fleet manifest version 2"):
            ShardedStreamEngine.restore(tmp_path)

    def test_restore_refuses_a_truncated_manifest(self, tmp_path):
        with build_fleet() as fleet:
            fleet.save_checkpoints(tmp_path)
        manifest_path = tmp_path / "fleet-manifest.json"
        text = manifest_path.read_text()
        manifest_path.write_text(text[: len(text) // 2])
        with pytest.raises(CheckpointError, match="cannot read fleet manifest"):
            ShardedStreamEngine.restore(tmp_path)
        manifest = json.loads(text)
        del manifest["relations"][0]["partition_axis"]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="missing field 'partition_axis'"):
            ShardedStreamEngine.restore(tmp_path)
        for field in ("coordinator_checkpoint", "shard_checkpoints", "fault_policy"):
            manifest = json.loads(text)
            del manifest[field]
            manifest_path.write_text(json.dumps(manifest))
            with pytest.raises(CheckpointError, match=f"missing field '{field}'"):
                ShardedStreamEngine.restore(tmp_path)

    @staticmethod
    def save_twice_with_a_failed_manifest_write(directory, keep):
        """Save, register a query and ingest more, then save again with the
        manifest's rename failing; returns the first save's answers.

        The shards and the replica write their checkpoints first, so their
        stores hold the failed save's files.
        """
        renames, replace = [], os.replace

        def manifest_rename_fails(src, dst):
            if Path(dst).name == "fleet-manifest.json":
                renames.append(dst)
                raise OSError("injected rename failure")
            return replace(src, dst)

        batches = make_batches()
        with ShardedStreamEngine(num_shards=2, seed=3, executor="process") as fleet:
            fleet.create_relation("R1", ["A"], [Domain.of_size(DOMAIN)])
            fleet.create_relation("R2", ["A"], [Domain.of_size(DOMAIN)])
            fleet.register_query("q_cosine", QUERY, method="cosine", budget=24)
            for name, rows in batches[:4]:
                fleet.ingest_batch(name, rows)
            fleet.save_checkpoints(directory, keep=keep)
            expected = fleet.answers()
            before = (directory / "fleet-manifest.json").read_bytes()
            fleet.register_query("q_basic", QUERY, method="basic_sketch", budget=24)
            for name, rows in batches[4:]:
                fleet.ingest_batch(name, rows)
            with mock.patch("os.replace", manifest_rename_fails):
                with pytest.raises(OSError, match="injected rename failure"):
                    fleet.save_checkpoints(directory, keep=keep)
            assert len(renames) == 1
            assert (directory / "fleet-manifest.json").read_bytes() == before
            assert not list(directory.glob(".fleet-manifest.json.tmp.*"))
        return expected

    def test_failed_manifest_write_keeps_the_previous_one(self, tmp_path):
        """The manifest commits a save: a failed write restores the one before."""
        expected = self.save_twice_with_a_failed_manifest_write(tmp_path, keep=2)
        with ShardedStreamEngine.restore(tmp_path) as restored:
            assert restored.total_count("R1") + restored.total_count("R2") == 160
            assert restored.query_names() == ["q_cosine"]
            assert restored.answer("q_cosine") == pytest.approx(expected["q_cosine"], rel=1e-9)
            restored.register_query("q_basic", QUERY, method="basic_sketch", budget=24)
            assert restored.query_names() == ["q_cosine", "q_basic"]

    def test_failed_manifest_write_without_the_previous_save_is_refused(self, tmp_path):
        """With one checkpoint kept, the previous save is gone: restore says so."""
        self.save_twice_with_a_failed_manifest_write(tmp_path, keep=1)
        with pytest.raises(CheckpointError, match="names checkpoints that are gone"):
            ShardedStreamEngine.restore(tmp_path)

    def test_restore_shard_validates_inputs(self, tmp_path):
        fleet = build_fleet()
        with pytest.raises(ValueError, match="out of range"):
            fleet.restore_shard(99, tmp_path)
        with pytest.raises(ShardError, match="no checkpoints"):
            fleet.restore_shard(0, tmp_path / "empty")
        fleet.close()


def degrade_shard_query(fleet, shard, query="q_cosine"):
    """Make one query's observer on one shard explode on the next batch."""
    engine = fleet._executor.workers[shard].engine
    _, observer = engine._queries[query].attachments[0]

    def exploding(relation, rows, kind):
        raise RuntimeError("synopsis exploded")

    observer.on_ops = exploding


class TestPerShardFaultIsolation:
    def feed_all_shards(self, fleet, seed=9):
        rng = np.random.default_rng(seed)
        fleet.ingest_batch("R1", rng.integers(0, DOMAIN, size=(120, 1)))
        fleet.ingest_batch("R2", rng.integers(0, DOMAIN, size=(120, 1)))

    def test_quarantine_degrades_only_that_shards_queries(self):
        fleet = build_fleet()
        fleet.enable_fault_isolation("raise")
        degrade_shard_query(fleet, shard=1)
        self.feed_all_shards(fleet)
        degraded = fleet.degraded_queries()
        assert list(degraded) == ["q_cosine"]
        assert list(degraded["q_cosine"]) == [1]
        # every other shard's engine is untouched
        for shard in (0, 2):
            assert fleet._executor.workers[shard].engine.degraded_queries() == {}
        fleet.close()

    def test_raise_policy_names_shard_and_query(self):
        fleet = build_fleet()
        fleet.enable_fault_isolation("raise")
        degrade_shard_query(fleet, shard=1)
        self.feed_all_shards(fleet)
        with pytest.raises(DegradedQueryError) as info:
            fleet.answer("q_cosine")
        assert info.value.query == "q_cosine"
        assert "shard 1" in info.value.reason
        fleet.close()

    def test_other_queries_keep_answering_exactly(self):
        control = build_fleet()
        fleet = build_fleet()
        fleet.enable_fault_isolation("nan")
        degrade_shard_query(fleet, shard=1)
        self.feed_all_shards(control)
        self.feed_all_shards(fleet)
        assert math.isnan(fleet.answer("q_cosine"))
        for method in EXACT_METHODS:
            assert fleet.answer(f"q_{method}") == control.answer(f"q_{method}")
        fleet.close()
        control.close()

    def test_exact_policy_falls_back_to_merged_ground_truth(self):
        fleet = build_fleet()
        fleet.enable_fault_isolation("exact")
        degrade_shard_query(fleet, shard=0)
        self.feed_all_shards(fleet)
        assert fleet.answer("q_cosine") == fleet.exact_answer("q_cosine")
        fleet.close()

    def test_restored_shard_rebuilds_a_quarantined_share(self, tmp_path):
        fleet = build_fleet()
        fleet.enable_fault_isolation("nan")
        fleet.register_query("q_twin", QUERY, method="cosine", budget=24)
        degrade_shard_query(fleet, shard=1)
        self.feed_all_shards(fleet)
        self.feed_all_shards(fleet, seed=10)
        fleet.save_checkpoints(tmp_path)
        restored = ShardedStreamEngine.restore(tmp_path)
        for target in (fleet, restored):
            target.register_query("q_fresh", QUERY, method="cosine", budget=24)
        assert list(restored.degraded_queries()) == ["q_cosine", "q_twin"]
        assert restored.answer("q_fresh") == fleet.answer("q_fresh")
        restored.close()
        fleet.close()

    def test_policy_validated(self):
        fleet = build_fleet()
        with pytest.raises(ValueError, match="unknown degraded-answer policy"):
            fleet.enable_fault_isolation("retry")
        fleet.close()
