"""Tests for the repro-experiments command line."""

import json

import pytest

from repro.experiments.cli import build_parser, main


class TestList:
    def test_lists_all_figures(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for i in range(1, 21):
            assert f"fig{i:02d}" in out


class TestRun:
    def test_run_one_figure(self, capsys):
        code = main(["run", "fig13", "--trials", "1", "--budgets", "10,20"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fig13" in out and "winner" in out

    def test_unknown_figure(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_chart_flag(self, capsys):
        main(["run", "fig13", "--trials", "1", "--budgets", "10,20", "--chart"])
        out = capsys.readouterr().out
        assert "relative error vs space" in out

    def test_budget_parsing(self, capsys):
        main(["run", "fig13", "--trials", "1", "--budgets", "15"])
        out = capsys.readouterr().out
        assert "15" in out


class TestSpeed:
    def test_speed_smoke(self, capsys):
        assert main(["speed", "--size", "200"]) == 0
        out = capsys.readouterr().out
        assert "cosine" in out and "sketch" in out


class TestJsonExport:
    def test_json_file_written(self, capsys, tmp_path):
        out = tmp_path / "series.json"
        main(["run", "fig13", "--trials", "1", "--budgets", "10,20",
              "--json", str(out)])
        import json

        payload = json.loads(out.read_text())
        assert payload[0]["name"] == "fig13"
        assert payload[0]["budgets"] == [10, 20]


class TestStats:
    METHODS = ("cosine", "basic_sketch", "sample", "histogram", "wavelet")

    def test_stats_smoke_reports_every_method(self, capsys):
        code = main(
            ["stats", "--tuples", "400", "--batch", "64", "--domain", "200",
             "--budget", "32"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "engine stats:" in out
        assert "observer update time by method:" in out
        for method in self.METHODS:  # the default --methods registration set
            assert method in out

    def test_stats_per_tuple_mode(self, capsys):
        code = main(
            ["stats", "--tuples", "50", "--batch", "1", "--domain", "50",
             "--budget", "16", "--methods", "cosine"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "per-tuple ops" in out and "cosine" in out


class TestBounds:
    def test_every_bound_covers_the_exact_answer(self, capsys):
        code = main(["bounds", "--tuples", "2000", "--domain", "200", "--budget", "32"])
        assert code == 0
        rows = {}
        for line in capsys.readouterr().out.splitlines():
            fields = line.split()
            if len(fields) >= 2 and fields[1].replace(",", "").replace(".", "").isdigit():
                rows[fields[0]] = [float(field.replace(",", "")) for field in fields[1:4]]
        exact = rows.pop("exact")[0]
        assert sorted(rows) == ["basic_sketch", "cosine", "histogram", "sample"]
        for method, (estimate, bound, clamped) in rows.items():
            assert exact <= bound, method
            assert clamped == min(estimate, bound), method


class TestMonitor:
    ARGS = ["monitor", "--tuples", "600", "--batch", "128", "--domain", "100",
            "--budget", "32", "--refresh-every", "400", "--accuracy-every", "200",
            "--no-clear"]

    def test_monitor_end_to_end(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "telemetry dashboard" in out
        assert "tuples ingested" in out
        assert "estimate latency:" in out and "p95" in out
        assert "streaming relative error" in out
        assert "q_cosine" in out and "q_basic_sketch" in out
        assert "recent spans" in out

    def test_monitor_sinks(self, capsys, tmp_path):
        import json

        jsonl = tmp_path / "snap.jsonl"
        prom = tmp_path / "metrics.prom"
        code = main(self.ARGS + ["--jsonl", str(jsonl), "--prom", str(prom)])
        assert code == 0
        lines = jsonl.read_text().splitlines()
        assert lines, "expected at least one JSONL snapshot"
        snapshot = json.loads(lines[-1])
        assert snapshot["stats"]["tuples_ingested"] == 1200
        assert "q_cosine" in snapshot["accuracy"]["queries"]
        prom_text = prom.read_text()
        assert "# TYPE repro_ingest_ops_total counter" in prom_text
        assert "repro_accuracy_relative_error_bucket" in prom_text

    def test_monitor_trace_sampling_announced_on_dashboard(self, capsys):
        code = main(
            ["monitor", "--tuples", "60", "--batch", "1", "--domain", "50",
             "--budget", "16", "--refresh-every", "40", "--accuracy-every", "30",
             "--no-clear", "--trace-sample", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1-in-4 sampling" in out and "sampled out" in out


class TestServeMetrics:
    ARGS = ["monitor", "--tuples", "300", "--batch", "128", "--domain", "100",
            "--budget", "32", "--refresh-every", "400", "--accuracy-every", "200",
            "--no-clear", "--serve-metrics", "0"]

    def test_monitor_announces_endpoint(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "serving metrics at http://127.0.0.1:" in out
        assert "/metrics" in out

    def test_sharded_monitor_announces_endpoint(self, capsys):
        assert main(self.ARGS + ["--shards", "2"]) == 0
        out = capsys.readouterr().out
        assert "serving metrics at http://127.0.0.1:" in out


class TestCheckpointingMonitor:
    ARGS = ["monitor", "--tuples", "600", "--batch", "128", "--domain", "100",
            "--budget", "32", "--refresh-every", "400", "--accuracy-every", "200",
            "--no-clear"]

    def test_monitor_writes_rotated_checkpoints(self, capsys, tmp_path):
        ckpts = tmp_path / "ckpts"
        code = main(self.ARGS + ["--checkpoint-dir", str(ckpts),
                                 "--checkpoint-every", "256",
                                 "--checkpoint-keep", "2"])
        assert code == 0
        assert "wrote checkpoint" in capsys.readouterr().out
        files = sorted(p.name for p in ckpts.iterdir())
        assert len(files) == 2  # rotation enforced --checkpoint-keep
        assert all(name.startswith("checkpoint-") for name in files)

    def test_resume_restores_latest_checkpoint(self, capsys, tmp_path):
        ckpts = tmp_path / "ckpts"
        main(self.ARGS + ["--checkpoint-dir", str(ckpts)])
        capsys.readouterr()
        assert main(["resume", "--checkpoint-dir", str(ckpts)]) == 0
        out = capsys.readouterr().out
        assert "restored checkpoint-" in out
        assert "relation R1" in out and "600 tuples" in out
        assert "query q_cosine" in out and "query q_basic_sketch" in out

    def test_resume_restores_a_monitored_fleet(self, capsys, tmp_path):
        ckpts = tmp_path / "ckpts"
        jsonl, prom = tmp_path / "snap.jsonl", tmp_path / "metrics.prom"
        code = main(self.ARGS + ["--shards", "2", "--jsonl", str(jsonl),
                                 "--prom", str(prom), "--checkpoint-dir", str(ckpts)])
        assert code == 0
        out = capsys.readouterr().out
        assert "ops over 2 shards (serial)" in out
        assert f"wrote per-shard checkpoints + fleet manifest to {ckpts}" in out
        final = out.split("final estimates:\n")[1].splitlines()[:2]
        estimates = dict(line.split() for line in final)
        assert set(estimates) == {"q_cosine", "q_basic_sketch"}
        assert "shards" in json.loads(jsonl.read_text().splitlines()[-1])
        assert 'repro_relation_ops_total{relation="R1",shard="0"}' in prom.read_text()

        assert main(["resume", "--checkpoint-dir", str(ckpts)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"restored 2-shard fleet from {ckpts}"
        restored = {}
        for line in lines[1:]:
            kind, name, value = line.split()[:3]
            restored[(kind, name)] = value
        assert restored == {
            ("relation", "R1"): "600",
            ("relation", "R2"): "600",
            ("query", "q_cosine"): estimates["q_cosine"],
            ("query", "q_basic_sketch"): estimates["q_basic_sketch"],
        }

    def test_resume_empty_store_fails_cleanly(self, capsys, tmp_path):
        assert main(["resume", "--checkpoint-dir", str(tmp_path / "empty")]) == 2
        assert "no checkpoints found" in capsys.readouterr().err


class TestErrorHandling:
    def test_corrupt_checkpoint_reports_one_line_error(self, capsys, tmp_path):
        ckpts = tmp_path / "ckpts"
        ckpts.mkdir()
        (ckpts / "checkpoint-00000001.ckpt").write_bytes(b"garbage\n\x00")
        assert main(["resume", "--checkpoint-dir", str(ckpts)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_unwritable_json_path_reports_error(self, capsys, tmp_path):
        code = main(["run", "fig13", "--trials", "1", "--budgets", "10",
                     "--json", str(tmp_path / "no" / "such" / "dir" / "x.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestSweep:
    def test_bound_sweep(self, capsys):
        assert main(["sweep", "bound", "--trials", "1"]) == 0
        out = capsys.readouterr().out
        assert "bound" in out and "%" in out

    def test_axis_validated_by_parser(self):
        with pytest.raises(SystemExit):
            main(["sweep", "altitude"])


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestServe:
    def test_serve_max_seconds_exits_cleanly(self, capsys):
        code = main(
            ["serve", "--shards", "2", "--executor", "serial",
             "--max-seconds", "0.4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "serving 2-shard fleet" in out
        assert "executor=serial" in out and "policy=raise" in out

    def test_serve_socket_executor_smoke(self, capsys):
        code = main(
            ["serve", "--shards", "2", "--max-seconds", "0.4",
             "--max-restarts", "1"]
        )
        assert code == 0
        assert "executor=socket" in capsys.readouterr().out


class TestDeadlettersCommand:
    @pytest.fixture
    def daemon(self):
        """A live serve daemon with one dead-lettered row."""
        import asyncio
        import threading

        from repro.core.normalization import Domain
        from repro.fleet import FleetServer
        from repro.sharding import ShardedStreamEngine

        fleet = ShardedStreamEngine(num_shards=2, seed=0)
        fleet.create_relation("R1", ["A"], [Domain.of_size(10)])
        fleet.enable_dead_lettering()
        fleet.ingest_batch("R1", [[1], [99]])  # 99 is out of domain

        server = FleetServer(fleet)
        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()
        asyncio.run_coroutine_threadsafe(server.start(), loop).result(10)
        yield server.address
        asyncio.run_coroutine_threadsafe(server.close(), loop).result(10)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10)
        loop.close()
        fleet.close()

    def test_inspect_prints_buffer_accounting(self, capsys, daemon):
        host, port = daemon
        code = main(["deadletters", "--host", host, "--port", str(port)])
        assert code == 0
        out = capsys.readouterr().out
        assert "dead letters: 1 held" in out
        assert "out_of_domain" in out and "[99]" in out

    def test_replay_reports_partial_outcome(self, capsys, daemon):
        host, port = daemon
        code = main(
            ["deadletters", "--host", host, "--port", str(port), "--replay"]
        )
        assert code == 0
        out = capsys.readouterr().out
        # the row is still out of domain: attempted but not re-ingested
        assert "replayed 1 dead letters: 0 re-ingested, 1 still dead" in out

    def test_disabled_buffer_reports_error_exit(self, capsys):
        import asyncio
        import threading

        from repro.fleet import FleetServer
        from repro.sharding import ShardedStreamEngine

        fleet = ShardedStreamEngine(num_shards=1, seed=0)  # no dead-lettering
        server = FleetServer(fleet)
        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()
        asyncio.run_coroutine_threadsafe(server.start(), loop).result(10)
        try:
            host, port = server.address
            code = main(["deadletters", "--host", host, "--port", str(port)])
            assert code == 2
            assert "not enabled" in capsys.readouterr().err
        finally:
            asyncio.run_coroutine_threadsafe(server.close(), loop).result(10)
            loop.call_soon_threadsafe(loop.stop)
            thread.join(10)
            loop.close()
            fleet.close()
