"""The three shard executors behave identically behind one interface."""

import pytest

from repro.sharding.executor import (
    ProcessExecutor,
    SerialExecutor,
    ShardError,
    ShardExecutor,
    ThreadExecutor,
    resolve_executor,
)

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
        try:
            pids = set(ex.broadcast("ping"))
            assert pids == {0, 1}
            assert all(p.is_alive() for p in ex._procs)
        finally:
            ex.close()
        assert not any(p.is_alive() for p in ex._procs) or not ex._procs


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
            os.kill(ex._procs[1].pid, signal.SIGKILL)
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

            os.kill(ex._procs[0].pid, signal.SIGSTOP)
            try:
                with pytest.raises(ShardError, match="call_timeout"):
                    ex.call(0, "ping")
            finally:
                os.kill(ex._procs[0].pid, signal.SIGCONT)
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
        os.kill(ex._procs[0].pid, signal.SIGKILL)
        started = time.monotonic()
        ex.close()
        assert time.monotonic() - started < 10
        assert ex._procs == [] and ex._conns == []


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
    if isinstance(ex, ProcessExecutor):
        return list(ex._procs)
    return [shard._proc for shard in ex.supervisor._procs]


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
