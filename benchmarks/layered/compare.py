"""Compare a parent and a change result set, workload by workload.

    python3 benchmarks/layered/compare.py --parent p*.json --change c*.json

Each input is a ``run.py --out`` file; the runs of one side's files are
concatenated in the order given.  Runs pair up in order per workload
(parent run i with change run i); make them by alternating the two
commits, starting with a different side in successive pairs, at least ten
pairs per workload.  Only untraced runs are compared.

Every end-to-end metric is judged, those of ``BENCHMARK.json`` and
``common.EXTRA_END_TO_END`` alike; a metric a workload does not report
(``n/a``) is skipped.  Verdict per workload and metric:

* **improved** -- the change wins at least nine tenths of all pairs (ties
  count for neither) and the medians differ by more than the parent's
  inter-quartile distance;
* **regressed** -- the change's median is worse than the parent's by more
  than the bound (a share of the parent's median; for ``setup_s``
  ``SETUP_BOUND`` or ``SETUP_FLOOR_S``, whichever is larger);
* **unresolved** -- the parent's own spread is wider than the bound and
  not every change run beats every parent run;
* **unchanged** -- otherwise.

A bound of 0 (``failed_ops_frac``) means any increase of the median is a
regression and any decrease an improvement; its spread is not judged.
Pairs that read exactly the same on both sides (``rel_error_p50`` and
``state_bytes`` are deterministic for a seed) are unchanged.

A pair whose change run failed a larger share of operations is flagged,
and a gain on a workload with such a pair does not count.  The exit code
is 1 when any metric regressed or any pair was flagged.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from common import SETUP_BOUND, SETUP_FLOOR_S, end_to_end_table, quartiles

MIN_PAIRS = 10


def verdict(parent: list[float], change: list[float], better: str, bound: float,
            floor: float = 0.0) -> tuple[str, int]:
    """``(verdict, pairs the change won)`` for one metric of one workload.

    ``floor`` is the smallest worsening, in the metric's unit, that counts
    as a regression.
    """
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    if list(parent) == list(change):  # deterministic metrics of unchanged code
        return "unchanged", wins
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    gain = sign * (c_med - p_med)
    if bound == 0:
        return ("regressed" if gain < 0 else "improved" if gain > 0 else "unchanged"), wins
    pairs = min(len(parent), len(change))
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    won = wins >= 0.9 * pairs and abs(c_med - p_med) > p_q3 - p_q1
    limit = max(bound * abs(p_med), floor)
    if p_med and (p_q3 - p_q1) > limit:
        return ("improved" if all_better and won else "unresolved"), wins
    if won and gain > 0:
        return "improved", wins
    if -gain > limit:
        return "regressed", wins
    return "unchanged", wins


def load_runs(paths: list[str]) -> dict[str, Any]:
    runs: list[dict[str, Any]] = []
    for path in paths:
        with open(path) as handle:
            runs.extend(json.load(handle)["runs"])
    return {"runs": runs}


def compare(parent: dict[str, Any], change: dict[str, Any]) -> list[dict[str, Any]]:
    """One row per workload and end-to-end metric the workload reports."""
    rows = []
    for workload in dict.fromkeys(r["workload"] for r in parent["runs"] if not r["trace"]):
        p_runs = [r for r in parent["runs"] if r["workload"] == workload and not r["trace"]]
        c_runs = [r for r in change["runs"] if r["workload"] == workload and not r["trace"]]
        n = min(len(p_runs), len(c_runs))
        p_runs, c_runs = p_runs[:n], c_runs[:n]
        more_failures = sum(1 for p, c in zip(p_runs, c_runs)
                            if c["values"]["failed_ops_frac"] > p["values"]["failed_ops_frac"])
        parent_first = sum(1 for p, c in zip(p_runs, c_runs) if p["started"] < c["started"])
        for metric in end_to_end_table():
            name = metric["name"]
            p_vals = [r["values"][name] for r in p_runs]
            c_vals = [r["values"][name] for r in c_runs]
            if None in p_vals or None in c_vals:
                continue
            setup = name == "setup_s"
            bound = SETUP_BOUND if setup else metric["bound"]
            floor = SETUP_FLOOR_S if setup else 0.0
            result, wins = verdict(p_vals, c_vals, metric["better"], bound, floor)
            if result == "improved" and more_failures:
                result = "unchanged"  # a gain does not count when more operations fail
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "pairs": n, "parent": quartiles(p_vals), "change": quartiles(c_vals),
                "wins": wins, "verdict": result, "bound": bound,
                "more_failures": more_failures, "parent_first": parent_first,
                "too_few_pairs": n < MIN_PAIRS,
            })
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Compare two layered-benchmark result sets.")
    parser.add_argument("--parent", nargs="+", required=True, help="run.py --out files")
    parser.add_argument("--change", nargs="+", required=True, help="run.py --out files")
    args = parser.parse_args(argv)
    rows = compare(load_runs(args.parent), load_runs(args.change))
    workload = None
    for row in rows:
        if row["workload"] != workload:
            workload = row["workload"]
            notes = [f"{row['pairs']} pairs, parent ran first in {row['parent_first']}"]
            if row["too_few_pairs"]:
                notes.append(f"FEWER THAN {MIN_PAIRS} PAIRS")
            if row["more_failures"]:
                notes.append(f"CHANGE FAILED MORE OPS IN {row['more_failures']} PAIRS")
            print(f"-- {workload}: " + "; ".join(notes))
        p1, pm, p3 = row["parent"]
        c1, cm, c3 = row["change"]
        print(f"   {row['metric']:18s} parent {pm:>12.6g} [{p1:.6g}, {p3:.6g}]  "
              f"change {cm:>12.6g} [{c1:.6g}, {c3:.6g}] {row['unit']:9s} "
              f"won {row['wins']}/{row['pairs']}  {row['verdict']}")
    bad = any(r["verdict"] == "regressed" or r["more_failures"] for r in rows)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
