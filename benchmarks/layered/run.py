"""The layered benchmark driver: four workloads, end-to-end and per layer.

    python3 benchmarks/layered/run.py --seed 0                    # every workload
    python3 benchmarks/layered/run.py --workload serve_open_loop --seed 3 --trace 0
    python3 benchmarks/layered/run.py --seed 0 --trace            # per-layer metrics
    python3 benchmarks/layered/run.py --seed 0 --repeat 5 --out results.json

Each workload run is a fresh Python subprocess (``workloads.py``); the
driver itself imports nothing from the program.  Every end-to-end metric
is printed by name and unit (``n/a`` where the workload has no such
operation); the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, the metrics being
those ``BENCHMARK.json`` lists.  Failed operations and failed checks are
counted, not raised: the exit code is non-zero only when the harness
itself fails (for instance when ``src/`` is missing).

``--seconds`` sizes each run's op script; it defaults to ``run_seconds``
in ``BENCHMARK.json``, the value every recorded run uses.

``--repeat K`` runs each workload K times on seeds ``seed .. seed+K-1``,
alternating the workload order, and reports the median and quartiles of
every metric, flagging any end-to-end metric whose run-to-run spread
(inter-quartile distance over median) exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from typing import Any

from common import HERE, ROOT, SRC, end_to_end_table, load_benchmark, quartiles, spread

#: A workload child that has not finished by now is killed (a harness error).
CHILD_TIMEOUT_S = 170


class HarnessError(RuntimeError):
    """The benchmark itself failed (not an operation of the program)."""


def run_child(workload: str, seed: int, seconds: float, trace: int, scale: float
              ) -> dict[str, Any]:
    """One workload run in a fresh interpreter; returns its result object."""
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--scale", str(scale)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # Own session, so a timeout can stop the child and everything it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    started = time.time()
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise HarnessError(f"{workload} (seed {seed}) exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise HarnessError(f"{workload} (seed {seed}) printed no result")
    result = json.loads(lines[-1])
    result["started"] = started
    return result


def print_run(result: dict[str, Any], table: list[dict[str, Any]]) -> None:
    mode = "traced" if result["trace"] else "untraced"
    print(f"== {result['workload']}  seed {result['seed']}  {result['seconds']:g} s  {mode}: "
          f"correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    gated = set(result["metrics"])
    for metric in table:
        value = result["values"][metric["name"]]
        shown = "n/a" if value is None else f"{value:.6g}"
        note = "" if metric["name"] in gated else "  (compare.py only)"
        print(f"   {metric['name']:42s} {shown:>16s} {metric['unit']}{note}")
    for line in result["details"].get("errors", []):
        print(f"   ! {line}")
    for line in result["details"].get("known_failures", []):
        print(f"   known failure: {line}")
    sys.stdout.flush()


def summarize(runs: list[dict[str, Any]], table: list[dict[str, Any]]
              ) -> dict[str, dict[str, dict[str, Any]]]:
    """Per workload and metric: median, quartiles, spread and bound; ``None`` if n/a."""
    out: dict[str, dict[str, dict[str, Any]]] = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        rows: dict[str, Any] = {}
        for metric in table:
            series = [r["values"][metric["name"]] for r in runs if r["workload"] == workload]
            if None in series:
                rows[metric["name"]] = None
                continue
            q1, median, q3 = quartiles(series)
            rows[metric["name"]] = {"median": median, "q1": q1, "q3": q3,
                                    "spread": spread(series), "bound": metric.get("bound")}
        out[workload] = rows
    return out


def print_summary(summary: dict[str, dict[str, Any]], table: list[dict[str, Any]],
                  repeat: int) -> list[str]:
    """Print the spread table; return the flagged ``workload/metric`` names."""
    units = {m["name"]: m["unit"] for m in table}
    flagged = []
    print(f"\n== spread over {repeat} runs (inter-quartile distance / median)")
    for workload, rows in summary.items():
        print(f"-- {workload}")
        for name, row in rows.items():
            if row is None:
                print(f"   {name:42s} n/a")
                continue
            bound = row["bound"]
            flag = ""
            if bound and row["spread"] > bound:
                flag = "  SPREAD > BOUND"
                flagged.append(f"{workload}/{name}")
            limit = "" if bound is None else f" (bound {bound:.2f})"
            print(f"   {name:42s} median {row['median']:>14.6g} {units[name]:9s} "
                  f"[{row['q1']:.6g}, {row['q3']:.6g}]  spread {row['spread']:.3f}{limit}{flag}")
    return flagged


def final_line(runs: list[dict[str, Any]], summary: dict[str, Any],
               table: list[dict[str, Any]]) -> dict[str, Any]:
    """The machine-read last line: medians over repeats, one workload or several."""
    single = len(summary) == 1
    metrics = {}
    for workload, rows in summary.items():
        for metric in table:
            key = metric["name"] if single else f"{workload}.{metric['name']}"
            metrics[key] = {"value": rows[metric["name"]]["median"], "unit": metric["unit"]}
    return {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description="Run the layered benchmark.")
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0, help="seed of every generated input")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"],
                        help="length of each run's op script (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1 (or the bare flag): report the per-layer metrics")
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload")
    parser.add_argument("--out", help="write every run and the summary to this JSON file")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="test-only: shrink op scripts, batches and preloads")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"error: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    workloads = args.workload or names
    result_table = bench["per_layer" if args.trace else "end_to_end"]
    table = bench["per_layer"] if args.trace else end_to_end_table()
    runs = []
    try:
        for rep in range(args.repeat):
            order = workloads if rep % 2 == 0 else workloads[::-1]
            for workload in order:
                result = run_child(workload, args.seed + rep, args.seconds, args.trace,
                                   args.scale)
                print_run(result, table)
                runs.append(result)
    except (HarnessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary = summarize(runs, table)
    flagged = print_summary(summary, table, args.repeat) if args.repeat > 1 else []
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"run_seconds": args.seconds, "runs": runs, "summary": summary,
                       "flagged": flagged}, handle, indent=1)
    print(json.dumps(final_line(runs, summary, result_table)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
