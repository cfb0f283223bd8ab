"""ShardSupervisor: spawn, journal, crash revival, heartbeats, metrics."""

import os
import signal
import time

import numpy as np
import pytest

from repro.core.normalization import Domain
from repro.fleet import ShardSupervisor
from repro.sharding import ShardedStreamEngine
from repro.sharding.executor import ShardError
from repro.sharding.worker import ShardWorker
from repro.streams import JoinQuery, StreamEngine
from repro.streams.tuples import OpKind

from .conftest import DOMAIN


def make_supervisor(num_shards=2, **options):
    supervisor = ShardSupervisor(**options)
    supervisor.start(num_shards, seed=7)
    return supervisor


def prime_shard(supervisor, shard, rows):
    """Give one worker a relation plus some ingested state."""
    supervisor.command(
        shard, "create_relation", ("R", ["A"], [{"low": 0, "size": DOMAIN}])
    )
    supervisor.command(shard, "ingest", ("R", rows, OpKind.INSERT))


def sigkill(supervisor, shard):
    """Kill one worker outright; its death surfaces as a socket EOF."""
    os.kill(supervisor.pid(shard), signal.SIGKILL)


class TestLifecycle:
    def test_workers_serve_commands_and_stop(self):
        supervisor = make_supervisor(num_shards=3)
        try:
            assert [supervisor.command(s, "ping") for s in range(3)] == [0, 1, 2]
            pids = supervisor.pids()
            assert len(set(pids)) == 3 and all(pids)
        finally:
            supervisor.stop()
        supervisor.stop()  # idempotent

    def test_worker_errors_surface_as_shard_errors(self):
        supervisor = make_supervisor()
        try:
            with pytest.raises(ShardError, match="shard 1"):
                supervisor.command(1, "relation_count", ("missing",))
            # the worker survived the application error
            assert supervisor.command(1, "ping") == 1
            assert supervisor.restart_count(1) == 0
        finally:
            supervisor.stop()


class TestJournal:
    def test_mutating_commands_are_journaled_reads_are_not(self):
        supervisor = make_supervisor()
        try:
            prime_shard(supervisor, 0, [[1], [2]])
            supervisor.command(0, "relation_count", ("R",))
            journal = supervisor.journal(0)
            assert [e.method for e in journal.entries] == [
                "create_relation",
                "ingest",
            ]
        finally:
            supervisor.stop()

    def test_checkpoint_marks_and_truncates_the_journal(self, tmp_path):
        supervisor = make_supervisor()
        try:
            prime_shard(supervisor, 0, [[1], [2]])
            path = supervisor.command(0, "save_checkpoint", (str(tmp_path),))
            journal = supervisor.journal(0)
            assert journal.checkpoint == path
            assert journal.pending == 0
            assert journal.entries == []  # covered prefix dropped
            supervisor.command(0, "ingest", ("R", [[3]], OpKind.INSERT))
            assert journal.pending == 1
        finally:
            supervisor.stop()

    def test_replayed_total_counts_revives_not_reads(self, tmp_path):
        supervisor = make_supervisor()
        try:
            prime_shard(supervisor, 0, [[1], [2]])
            supervisor.command(0, "save_checkpoint", (str(tmp_path),))
            supervisor.command(0, "ingest", ("R", [[3]], OpKind.INSERT))
            supervisor.command(0, "ingest", ("R", [[4], [5]], OpKind.INSERT))
            assert len(supervisor.journal(0).entries) == 2
            # reading the journal replays nothing
            assert supervisor.health()["journals"][0]["replayed_total"] == 0
            sigkill(supervisor, 0)
            assert supervisor.command(0, "relation_count", ("R",)) == 5
            assert supervisor.restart_count(0) == 1
            # the revive replayed the two ingests since the checkpoint
            assert supervisor.health()["journals"][0]["replayed_total"] == 2
        finally:
            supervisor.stop()


PAIR = JoinQuery.parse(["R1", "R2"], ["R1.A = R2.A"])
PAIR_SPEC = {
    "kind": "join",
    "relations": ["R1", "R2"],
    "predicates": ["R1.A = R2.A"],
    "method": "basic_sketch",
    "budget": 8,
    "options": {},
}


def pair_fleet_and_engine():
    """A two-shard socket fleet and one engine, each fed R1 and R2 alike."""
    engine = StreamEngine(seed=0)
    fleet = ShardedStreamEngine(num_shards=2, seed=0, executor="socket")
    rows = np.arange(64)[:, None]
    for target in (engine, fleet):
        for name in ("R1", "R2"):
            target.create_relation(name, ["A"], [Domain.of_size(64)])
        for name in ("R1", "R2"):
            target.ingest_batch(name, rows)
    return fleet, engine


def journal_methods(fleet, shard):
    return [entry.method for entry in fleet._executor.supervisor.journal(shard).entries]


SETUP = ["create_relation", "create_relation", "ingest", "ingest"]


class TestRefusedCommands:
    """A command the worker refuses leaves no journal entry to replay."""

    def test_a_refused_registration_does_not_sink_the_next_revive(self):
        fleet, engine = pair_fleet_and_engine()
        try:
            fleet._executor.call(1, "register_query", "q2", PAIR_SPEC)
            with pytest.raises(ShardError, match="query 'q2' already registered"):
                fleet.register_query("q2", PAIR, method="basic_sketch", budget=8)
            assert journal_methods(fleet, 1) == [*SETUP, "register_query", "unregister_query"]

            supervisor = fleet._executor.supervisor
            os.kill(supervisor.pid(1), signal.SIGKILL)
            fleet.register_query("q2", PAIR, method="basic_sketch", budget=8)
            engine.register_query("q2", PAIR, method="basic_sketch", budget=8)
            assert fleet.answer("q2") == engine.answer("q2")
            assert supervisor.restart_count(1) == 1
            assert supervisor.health()["down"] == {}
        finally:
            fleet.close()

    def test_a_refused_registration_and_its_refused_rollback(self, monkeypatch):
        register = ShardWorker.register_query

        def refuse_on_shard_1(self, name, spec):
            if self.shard_index == 1:
                raise ValueError("refused")
            register(self, name, spec)

        monkeypatch.setattr(ShardWorker, "register_query", refuse_on_shard_1)
        fleet, _ = pair_fleet_and_engine()
        try:
            with pytest.raises(ShardError, match="shard 1: ValueError: refused"):
                fleet.register_query("q2", PAIR, method="basic_sketch", budget=8)
            assert journal_methods(fleet, 0) == [*SETUP, "register_query", "unregister_query"]
            assert journal_methods(fleet, 1) == SETUP

            supervisor = fleet._executor.supervisor
            os.kill(supervisor.pid(1), signal.SIGKILL)
            assert fleet.total_count("R1") == 64
            assert supervisor.restart_count(1) == 1
            assert supervisor.health()["down"] == {}
        finally:
            fleet.close()


class TestCrashRecovery:
    def test_sigkill_mid_fleet_revives_with_identical_state(self):
        supervisor = make_supervisor()
        try:
            prime_shard(supervisor, 0, [[v % DOMAIN] for v in range(40)])
            before = supervisor.command(0, "relation_count", ("R",))
            sigkill(supervisor, 0)
            old_pid = supervisor.pid(0)
            # next command detects the death, revives, replays, retries
            assert supervisor.command(0, "relation_count", ("R",)) == before == 40
            assert supervisor.restart_count(0) == 1
            assert supervisor.pid(0) != old_pid
            assert supervisor.shard_up(0)
        finally:
            supervisor.stop()

    def test_revive_restores_checkpoint_then_replays_suffix(self, tmp_path):
        supervisor = make_supervisor()
        try:
            prime_shard(supervisor, 0, [[1], [2]])
            supervisor.command(0, "save_checkpoint", (str(tmp_path),))
            supervisor.command(0, "ingest", ("R", [[3], [4], [5]], OpKind.INSERT))
            sigkill(supervisor, 0)
            assert supervisor.command(0, "relation_count", ("R",)) == 5
            # replay did not double-apply the checkpointed prefix
            assert supervisor.restart_count(0) == 1
        finally:
            supervisor.stop()

    def test_revive_after_a_load_restores_the_loaded_file(self, tmp_path):
        # A fleet restore loads the checkpoint its manifest names, which
        # need not be the store's newest: a revive must come back to it.
        supervisor = make_supervisor()
        try:
            prime_shard(supervisor, 0, [[1], [2]])
            first = supervisor.command(0, "save_checkpoint", (str(tmp_path),))
            supervisor.command(0, "ingest", ("R", [[3]], OpKind.INSERT))
            supervisor.command(0, "save_checkpoint", (str(tmp_path),))
            supervisor.command(0, "load_checkpoint", (first,))
            sigkill(supervisor, 0)
            assert supervisor.command(0, "relation_count", ("R",)) == 2
            assert supervisor.restart_count(0) == 1
        finally:
            supervisor.stop()

    def test_journaled_command_lost_in_flight_is_replayed_not_resent(self):
        supervisor = make_supervisor()
        try:
            prime_shard(supervisor, 0, [[1]])
            sigkill(supervisor, 0)
            # the dying dispatch returns None; replay already applied it
            assert supervisor.command(0, "ingest", ("R", [[2]], OpKind.INSERT)) is None
            assert supervisor.command(0, "relation_count", ("R",)) == 2
        finally:
            supervisor.stop()

    def test_restart_disabled_marks_shard_down(self):
        supervisor = make_supervisor(restart=False)
        try:
            prime_shard(supervisor, 0, [[1]])
            sigkill(supervisor, 0)
            with pytest.raises(ShardError, match="restart is disabled"):
                supervisor.command(0, "ping")
            assert not supervisor.shard_up(0)
            with pytest.raises(ShardError, match="worker is down"):
                supervisor.command(0, "ping")
            # the other shard is untouched
            assert supervisor.command(1, "ping") == 1
        finally:
            supervisor.stop()

    def test_max_restarts_exhaustion_marks_shard_down(self):
        supervisor = make_supervisor(max_restarts=1)
        try:
            prime_shard(supervisor, 0, [[1]])
            sigkill(supervisor, 0)
            supervisor.command(0, "ping")  # first revive succeeds
            sigkill(supervisor, 0)
            with pytest.raises(ShardError, match="after 1 restarts"):
                supervisor.command(0, "ping")
            assert not supervisor.shard_up(0)
        finally:
            supervisor.stop()

    def test_restart_metrics_and_health_snapshot(self):
        supervisor = make_supervisor()
        try:
            prime_shard(supervisor, 0, [[1]])
            sigkill(supervisor, 0)
            supervisor.command(0, "ping")
            counts = supervisor.registry.get(
                "repro_fleet_restarts_total"
            ).as_value_dict()
            assert counts["0"] == 1
            up = supervisor.registry.get("repro_fleet_shard_up").as_value_dict()
            assert up["0"] == 1 and up["1"] == 1
            health = supervisor.health()
            assert health["up"] == [True, True]
            assert health["restarts"] == [1, 0]
        finally:
            supervisor.stop()


class TestHeartbeat:
    def test_idle_crash_is_revived_without_command_traffic(self):
        supervisor = make_supervisor(
            num_shards=1, heartbeat_interval=0.05, heartbeat_misses=1
        )
        try:
            prime_shard(supervisor, 0, [[1], [2]])
            sigkill(supervisor, 0)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if supervisor.restart_count(0) >= 1:
                    break
                time.sleep(0.02)
            assert supervisor.restart_count(0) >= 1
            assert supervisor.command(0, "relation_count", ("R",)) == 2
            misses = supervisor.registry.get(
                "repro_fleet_heartbeat_misses_total"
            ).as_value_dict()
            assert misses["0"] >= 1
        finally:
            supervisor.stop()

    def test_options_validated(self):
        with pytest.raises(ValueError, match="max_restarts"):
            ShardSupervisor(max_restarts=-1)
        with pytest.raises(ValueError, match="heartbeat_interval"):
            ShardSupervisor(heartbeat_interval=0)
        with pytest.raises(ValueError, match="heartbeat_misses"):
            ShardSupervisor(heartbeat_misses=0)
