"""The three shard executors behave identically behind one interface."""

import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.sharding.executor import (
    ProcessExecutor,
    SerialExecutor,
    ShardError,
    ShardExecutor,
    ThreadExecutor,
    WorkerProcess,
    resolve_executor,
)
from repro.sharding.worker import ShardWorker
from repro.streams.tuples import OpKind

EXECUTORS = ["serial", "thread", "process"]


@pytest.fixture(params=EXECUTORS)
def executor(request):
    ex = resolve_executor(request.param)
    ex.start(3, seed=0, telemetry=False)
    yield ex
    ex.close()


class TestCommandProtocol:
    def test_broadcast_returns_shard_order(self, executor):
        assert executor.broadcast("ping") == [0, 1, 2]

    def test_call_targets_one_shard(self, executor):
        assert executor.call(1, "ping") == 1

    def test_scatter_skips_none_entries(self, executor):
        results = executor.scatter("ping", [((), {}), None, ((), {})])
        assert results == [0, None, 2]

    def test_worker_exception_becomes_shard_error(self, executor):
        with pytest.raises(ShardError, match="shard 2"):
            executor.call(2, "unregister_query", "nope")

    def test_scatter_surfaces_first_error_only(self, executor):
        with pytest.raises(ShardError):
            executor.scatter(
                "unregister_query", [(("a",), {}), (("b",), {}), (("c",), {})]
            )

    def test_unknown_method_is_shard_error(self, executor):
        with pytest.raises(ShardError):
            executor.call(0, "no_such_command")


class TestScatterWaitsForEveryShard:
    def test_thread_scatter_raises_only_after_every_shard_finished(self, monkeypatch):
        finished = []

        def ping(self):
            if self.shard_index == 0:
                raise RuntimeError("boom")
            time.sleep(0.2)
            finished.append(self.shard_index)
            return self.shard_index

        monkeypatch.setattr(ShardWorker, "ping", ping)
        with ThreadExecutor() as ex:
            ex.start(3, seed=0, telemetry=False)
            with pytest.raises(ShardError, match="shard 0: RuntimeError: boom"):
                ex.broadcast("ping")
            assert sorted(finished) == [1, 2]

    @pytest.mark.parametrize("name", ["serial", "thread", "process", "socket"])
    def test_a_refused_shard_does_not_stop_the_others(self, name):
        good, bad = [{"low": 0, "size": 8}], [{"low": 0, "size": 0}]
        with resolve_executor(name) as ex:
            ex.start(3, seed=0, telemetry=False)
            per_shard = [(("R", ["A"], specs), {}) for specs in (bad, good, good)]
            with pytest.raises(ShardError, match="shard 0: ValueError: empty integer range"):
                ex.scatter("create_relation", per_shard)
            assert [ex.call(shard, "relation_count", "R") for shard in (1, 2)] == [0, 0]
            with pytest.raises(ShardError, match="shard 0: KeyError"):
                ex.call(0, "relation_count", "R")


class TestLifecycle:
    def test_close_is_idempotent(self):
        for name in EXECUTORS:
            ex = resolve_executor(name)
            ex.start(2, seed=0, telemetry=False)
            ex.close()
            ex.close()

    def test_context_manager_closes(self):
        with resolve_executor("thread") as ex:
            ex.start(2, seed=0, telemetry=False)
            assert ex.broadcast("ping") == [0, 1]

    def test_process_workers_are_real_processes(self):
        ex = ProcessExecutor()
        ex.start(2, seed=0, telemetry=False)
        procs = [w._proc for w in ex.supervisor._workers]
        try:
            pids = set(ex.broadcast("ping"))
            assert pids == {0, 1}
            assert all(p.is_alive() for p in procs)
        finally:
            ex.close()
        assert not any(p.is_alive() for p in procs) and not ex.supervisor._workers


class TestResolve:
    def test_names_resolve(self):
        assert isinstance(resolve_executor("serial"), SerialExecutor)
        assert isinstance(resolve_executor("thread"), ThreadExecutor)
        assert isinstance(resolve_executor("process"), ProcessExecutor)

    def test_instance_passes_through(self):
        ex = SerialExecutor()
        assert resolve_executor(ex) is ex

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            resolve_executor("gpu")

    def test_interface_is_abstract(self):
        with pytest.raises(NotImplementedError):
            ShardExecutor().start(1, 0)


class TestProcessExecutorRobustness:
    def test_dead_worker_raises_instead_of_blocking(self):
        import os
        import signal

        ex = ProcessExecutor()
        ex.start(2, seed=0, telemetry=False)
        try:
            os.kill(ex.supervisor.pid(1), signal.SIGKILL)
            with pytest.raises(ShardError, match="worker process"):
                ex.call(1, "ping")
            # the surviving shard is unaffected
            assert ex.call(0, "ping") == 0
        finally:
            ex.close()

    def test_call_timeout_bounds_an_unresponsive_worker(self):
        import signal

        ex = ProcessExecutor(call_timeout=0.3)
        ex.start(1, seed=0, telemetry=False)
        try:
            # wedge the worker: SIGSTOP leaves it alive but unable to reply
            import os

            pid = ex.supervisor.pid(0)
            os.kill(pid, signal.SIGSTOP)
            try:
                with pytest.raises(ShardError, match="call_timeout"):
                    ex.call(0, "ping")
            finally:
                try:
                    os.kill(pid, signal.SIGCONT)
                except ProcessLookupError:  # the timeout already reaped it
                    pass
        finally:
            ex.close()

    def test_call_timeout_validation(self):
        with pytest.raises(ValueError, match="call_timeout"):
            ProcessExecutor(call_timeout=0)

    def test_close_does_not_hang_after_a_worker_crash(self):
        import os
        import signal
        import time

        ex = ProcessExecutor()
        ex.start(2, seed=0, telemetry=False)
        os.kill(ex.supervisor.pid(0), signal.SIGKILL)
        started = time.monotonic()
        ex.close()
        assert time.monotonic() - started < 10
        assert ex.supervisor._workers == []


def _command_errors(ex):
    """The ShardError texts of a failing and of an unknown command on shard 1."""
    texts = []
    for command in (("unregister_query", "nope"), ("no_such_command",)):
        with pytest.raises(ShardError) as info:
            ex.call(1, *command)
        texts.append(str(info.value))
    return texts


def _worker_procs(ex):
    """The worker processes behind a process or socket executor."""
    return [worker._proc for worker in ex.supervisor._workers]


class TestOneCommandLoop:
    """In-process, pipe and socket workers answer commands the same way."""

    @pytest.mark.parametrize("name", ["thread", "process", "socket"])
    def test_errors_read_as_on_the_serial_executor(self, name):
        with resolve_executor("serial") as serial, resolve_executor(name) as other:
            serial.start(2, seed=0, telemetry=False)
            other.start(2, seed=0, telemetry=False)
            expected = _command_errors(serial)
            assert expected[0] == "shard 1: KeyError: \"no query named 'nope'\""
            assert _command_errors(other) == expected

    @pytest.mark.parametrize("name", ["process", "socket"])
    def test_close_shuts_workers_down_gracefully(self, name):
        ex = resolve_executor(name)
        ex.start(2, seed=0, telemetry=False)
        procs = _worker_procs(ex)
        try:
            _command_errors(ex)  # a failed command leaves the loop serving
            assert ex.broadcast("ping") == [0, 1]
        finally:
            ex.close()
        assert [proc.exitcode for proc in procs] == [0, 0]  # not terminated


class TestOneScatter:
    """Both process executors scatter through the supervisor on the calling thread."""

    @pytest.mark.parametrize("name", ["process", "socket"])
    def test_every_frame_is_sent_before_any_reply_is_read(self, name, monkeypatch):
        events = []
        send, recv = WorkerProcess.send, WorkerProcess.recv

        def spy_send(self, message):
            events.append(("send", self.shard))
            send(self, message)

        def spy_recv(self):
            events.append(("recv", self.shard))
            return recv(self)

        monkeypatch.setattr(WorkerProcess, "send", spy_send)
        monkeypatch.setattr(WorkerProcess, "recv", spy_recv)
        with resolve_executor(name) as ex:
            ex.start(3, seed=0, telemetry=False)
            assert ex.scatter("ping", [((), {})] * 3) == [0, 1, 2]
            assert events == [("send", 0), ("send", 1), ("send", 2),
                              ("recv", 0), ("recv", 1), ("recv", 2)]

    def test_socket_scatter_starts_no_threads(self):
        before = set(threading.enumerate())
        with resolve_executor("socket") as ex:
            ex.start(3, seed=0, telemetry=False)
            for _ in range(10):
                assert ex.broadcast("ping") == [0, 1, 2]
            assert [t.name for t in threading.enumerate() if t not in before] == []


def _alive(pid):
    """Whether ``pid`` is a running process (an unreaped zombie is not)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False
    except OSError:  # no procfs: fall back to a signal probe
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True


#: Starts a 3-shard executor, prints its worker pids, then blocks.
_COORDINATOR = """
import multiprocessing
import sys
from repro.sharding.executor import resolve_executor

ex = resolve_executor(sys.argv[1])
ex.start(3, seed=0, telemetry=False)
print(" ".join(str(p.pid) for p in multiprocessing.active_children()), flush=True)
sys.stdin.read()
"""


class TestLostWorkers:
    """A lost worker never answers out of turn and never outlives its coordinator."""

    def test_no_stale_reply_after_a_call_timeout(self, monkeypatch):
        def slow_ping(self):
            time.sleep(1.0)
            return 1000

        monkeypatch.setattr(ShardWorker, "ping", slow_ping)  # inherited by the fork
        ex = ProcessExecutor(mp_context="fork", call_timeout=0.3)
        ex.start(1, seed=0, telemetry=False)
        try:
            ex.call(0, "create_relation", "R", ["A"], [{"low": 0, "size": 8}])
            ex.call(0, "ingest", "R", np.array([[1], [2], [3]]), OpKind.INSERT)
            with pytest.raises(ShardError, match="call_timeout"):
                ex.call(0, "ping")
            time.sleep(1.0)  # long enough for a late ping reply to land
            with pytest.raises(ShardError, match="worker process"):
                ex.call(0, "relation_count", "R")
        finally:
            ex.close()

    @pytest.mark.parametrize("name", ["process", "socket"])
    def test_workers_exit_when_the_coordinator_is_killed(self, name):
        coordinator = subprocess.Popen(
            [sys.executable, "-c", _COORDINATOR, name],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        pids = []
        try:
            pids = [int(pid) for pid in coordinator.stdout.readline().split()]
            assert len(pids) == 3
            coordinator.kill()
            coordinator.wait(timeout=10)
            deadline = time.monotonic() + 5.0
            while any(_alive(pid) for pid in pids) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert [pid for pid in pids if _alive(pid)] == []
        finally:
            coordinator.kill()
            coordinator.wait(timeout=10)
            for pid in pids:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)


class TestSpawnStartMethod:
    """The socketpair end is pickled to the child only under ``spawn``."""

    @pytest.mark.parametrize("name", ["process", "socket"])
    def test_spawned_workers_serve_and_close(self, name):
        if name == "socket":
            from repro.fleet import SocketExecutor

            ex = SocketExecutor(mp_context="spawn")
        else:
            ex = ProcessExecutor(mp_context="spawn")
        ex.start(2, seed=0, telemetry=False)
        procs = _worker_procs(ex)
        try:
            assert ex.broadcast("ping") == [0, 1]
        finally:
            ex.close()
        assert [proc.exitcode for proc in procs] == [0, 0]
