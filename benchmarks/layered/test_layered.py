"""Smoke tests of the layered benchmark itself.

    PYTHONPATH=src python -m pytest benchmarks/layered -q

Runs every workload at a small ``--scale`` (a tenth of the op script,
batches and preloads), traced and untraced, and checks the driver's
contract, the determinism of the generated inputs, the wrappers' restore,
the self-time arithmetic and the comparison rules.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from time import perf_counter

import numpy as np
import pytest

import compare
import spans
import workloads
from common import HERE, ROOT, end_to_end_table, load_benchmark

BENCH = load_benchmark()
NAMES = [w["name"] for w in BENCH["workloads"]]


def _run(tmp_path, *args: str) -> tuple[dict, str, dict]:
    out = tmp_path / "runs.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "0.1", "--out", str(out), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout, json.loads(out.read_text())


@pytest.mark.parametrize("trace_flag", ["0", "1"])
def test_every_metric_is_emitted_with_its_unit(tmp_path, trace_flag):
    table = BENCH["per_layer" if trace_flag == "1" else "end_to_end"]
    workload_args = [] if trace_flag == "0" else [
        "--workload", "fleet_process_uniform", "--workload", "serve_open_loop"]
    line, text, saved = _run(tmp_path, "--seed", "0", "--trace", trace_flag, *workload_args)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    ran = NAMES if trace_flag == "0" else ["fleet_process_uniform", "serve_open_loop"]
    expected = {f"{w}.{m['name']}": m["unit"] for w in ran for m in table}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    printed = table if trace_flag == "1" else end_to_end_table()
    for metric in printed:
        assert metric["name"] in text  # printed by name too
    if trace_flag == "0":
        assert all(v["value"] > 0 for v in line["metrics"].values())
        for run in saved["runs"]:
            assert set(run["values"]) == {m["name"] for m in printed}
            # The empty-side probe's known ValueError is the only failure.
            known = run["workload"] == "engine_uniform_queries"
            assert (run["values"]["failed_ops_frac"] > 0) == known
            assert bool(run["details"]["known_failures"]) == known
            assert (run["values"]["state_bytes"] is None) == (run["workload"] == "serve_open_loop")
            has_checkpoints = run["workload"] == "fleet_process_uniform"
            assert (run["values"]["checkpoint_p50_ms"] is not None) == has_checkpoints


def test_missing_program_is_a_harness_error(tmp_path):
    bare = tmp_path / "checkout"
    (bare / "benchmarks").mkdir(parents=True)
    (bare / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    import shutil

    shutil.copytree(HERE, bare / "benchmarks" / "layered",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = subprocess.run([sys.executable, "benchmarks/layered/run.py", "--seed", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_inputs_depend_only_on_the_seed():
    zipf = workloads.zipf_rows(7, 1, 3, 256, 4096)
    assert np.array_equal(zipf, workloads.zipf_rows(7, 1, 3, 256, 4096))
    assert not np.array_equal(zipf, workloads.zipf_rows(8, 1, 3, 256, 4096))
    uni = workloads.uniform_rows(7, 3, 2, 256, (1024, 256))
    assert np.array_equal(uni, workloads.uniform_rows(7, 3, 2, 256, (1024, 256)))
    assert not np.array_equal(uni, workloads.uniform_rows(8, 3, 2, 256, (1024, 256)))
    a, b, c = (workloads.ServeOpenLoop(seed, 0.1, HERE).plan(20) for seed in (7, 7, 8))
    assert a == b and a != c


def test_traced_run_restores_every_wrapped_function():
    before = {}
    for module, path, _name, _attrs in spans.ENTRY_POINTS:
        owner, attr = spans.resolve(module, path)
        before[(module, path)] = (owner, attr, getattr(owner, attr), attr in vars(owner))
    with spans.installed(spans.Recorder()):
        for owner, attr, original, _own in before.values():
            assert getattr(owner, attr) is not original
    for owner, attr, original, own in before.values():
        assert getattr(owner, attr) is original
        assert (attr in vars(owner)) == own


def test_self_times_are_non_negative_and_within_wall_time():
    w = workloads.EngineZipfIngest(0, 0.1, HERE)
    engine = w.build()
    rec = spans.Recorder()
    rec.labels = w.labels
    ops = workloads.Ops(rec)
    start = perf_counter()
    with spans.installed(rec):
        workloads.timed_loop(w, engine, ops, rounds=20)
    wall = perf_counter() - start
    assert ops.failed == 0
    selfs, _folded = spans.self_times(rec.spans)
    assert rec.spans and min(selfs.values()) >= 0.0
    assert sum(selfs.values()) <= wall
    names = {s.name for s in rec.spans}
    assert {"streams.ingest_batch", "core.cosine_update", "fastpath.phi_block",
            "sketches.agms_update", "streams.answer"} <= names


def _result_set(values: list[float]) -> dict:
    runs = [{"workload": "w", "trace": 0, "started": float(i),
             "values": {m["name"]: v for m in end_to_end_table()}}
            for i, v in enumerate(values)]
    return {"runs": runs}


def test_compare_flags_a_regression_and_passes_identical_sets(tmp_path):
    rng = np.random.default_rng(0)
    values = list(100.0 * (1 + 0.01 * rng.standard_normal(10)))
    parent = _result_set(values)
    same = copy.deepcopy(parent)
    verdicts = {r["metric"]: r["verdict"] for r in compare.compare(parent, same)}
    assert set(verdicts) == {m["name"] for m in end_to_end_table()}
    assert set(verdicts.values()) == {"unchanged"}

    worse = copy.deepcopy(parent)
    for run in worse["runs"]:
        for metric in end_to_end_table():
            factor = 0.8 if metric["better"] == "higher" else 1.2
            run["values"][metric["name"]] *= factor
    verdicts = {r["metric"]: r["verdict"] for r in compare.compare(parent, worse)}
    assert set(verdicts.values()) == {"regressed"}

    # A metric a workload does not report is skipped, never compared.
    for data in (parent, worse):
        for run in data["runs"]:
            run["values"]["state_bytes"] = None
    assert "state_bytes" not in {r["metric"] for r in compare.compare(parent, worse)}

    paths = []
    for name, data in (("parent", parent), ("same", same), ("worse", worse)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(data))
    assert compare.main(["--parent", str(paths[0]), "--change", str(paths[1])]) == 0
    assert compare.main(["--parent", str(paths[0]), "--change", str(paths[2])]) == 1
