"""SocketExecutor: the ShardExecutor seam over supervised worker processes."""

import numpy as np
import pytest

from repro.fleet import ShardSupervisor, SocketExecutor
from repro.sharding.executor import ShardError, resolve_executor

from .conftest import (
    assert_fleet_answers_equal,
    build_fleet,
    build_socket_fleet,
    make_batches,
)


class TestResolution:
    def test_resolve_executor_knows_socket(self):
        executor = resolve_executor("socket")
        assert isinstance(executor, SocketExecutor)

    def test_unknown_executor_names_socket_in_the_error(self):
        with pytest.raises(ValueError, match="socket"):
            resolve_executor("carrier-pigeon")

    def test_engine_accepts_a_configured_instance(self):
        supervisor = ShardSupervisor(max_restarts=2)
        fleet = build_socket_fleet(supervisor=supervisor)
        try:
            assert fleet._executor.supervisor is supervisor
        finally:
            fleet.close()


class TestExecutorSurface:
    @pytest.fixture
    def executor(self):
        executor = SocketExecutor()
        executor.start(num_shards=2, seed=3)
        yield executor
        executor.close()

    def test_call_reaches_the_named_shard(self, executor):
        assert executor.call(0, "ping") == 0
        assert executor.call(1, "ping") == 1

    def test_broadcast_and_scatter(self, executor):
        assert executor.broadcast("ping") == [0, 1]
        assert executor.scatter("ping", [((), {}), None]) == [0, None]

    def test_worker_exceptions_arrive_as_shard_errors(self, executor):
        with pytest.raises(ShardError, match="shard 1"):
            executor.call(1, "relation_count", "missing")

    def test_close_is_idempotent(self):
        executor = SocketExecutor()
        executor.start(num_shards=1, seed=3)
        executor.close()
        executor.close()


class TestEngineParity:
    def test_socket_fleet_matches_serial_fleet_exactly(self):
        batches = make_batches(n_batches=6)
        control = build_fleet()
        fleet = build_socket_fleet()
        try:
            for name, rows in batches:
                control.ingest_batch(name, rows)
                fleet.ingest_batch(name, rows)
            assert_fleet_answers_equal(fleet, control.answers())
        finally:
            fleet.close()
            control.close()

    def test_spawned_workers_match_serial_fleet(self):
        # spawn starts multiprocessing's resource tracker, whose lock must
        # predate the lock sanitizer this package runs under
        batches = make_batches()
        control = build_fleet(num_shards=2)
        fleet = build_socket_fleet(num_shards=2, mp_context="spawn")
        try:
            for name, rows in batches:
                control.ingest_batch(name, rows)
                fleet.ingest_batch(name, rows)
            assert_fleet_answers_equal(fleet, control.answers())
        finally:
            fleet.close()
            control.close()

    def test_checkpoint_roundtrip_over_sockets(self, tmp_path):
        from repro.sharding import ShardedStreamEngine

        batches = make_batches(n_batches=6)
        fleet = build_socket_fleet()
        restored = None
        try:
            for name, rows in batches[:4]:
                fleet.ingest_batch(name, rows)
            fleet.save_checkpoints(tmp_path)

            restored = ShardedStreamEngine.restore(tmp_path, executor="socket")
            assert_fleet_answers_equal(restored, fleet.answers())

            for name, rows in batches[4:]:
                fleet.ingest_batch(name, rows)
                restored.ingest_batch(name, rows)
            assert_fleet_answers_equal(restored, fleet.answers())
        finally:
            if restored is not None:
                restored.close()
            fleet.close()

    def test_fleet_metrics_include_supervisor_families(self):
        fleet = build_socket_fleet()
        try:
            rng = np.random.default_rng(0)
            fleet.ingest_batch("R1", rng.integers(0, 48, size=(60, 1)))
            merged = fleet.fleet_metrics()
            assert merged.get("repro_fleet_shard_up") is not None
        finally:
            fleet.close()
