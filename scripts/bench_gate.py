"""CI bench gate: append a benchmark result to the trajectory and enforce the floor.

The ``bench-smoke`` CI job runs ``benchmarks/bench_fastpath.py`` and hands
its JSON result to this script.  The script

1. loads the persisted trajectory file (``BENCH_trajectory.json``,
   restored across runs via ``actions/cache`` and re-uploaded as an
   artifact) or bootstraps an empty one,
2. appends one entry — commit, CI run id, kernel speedup, projection
   speedup and tracemalloc peak, transform speedup, the two ingest
   kernels' speedups, ingest throughput — so the benchmark history of
   the branch is a first-class artifact rather than a pass/fail bit, and
3. fails the build when the fastpath kernel speedup, or the speedup of
   its projection form (what multi-attribute and endpoint-grid cosine
   updates and batch builds run), drops below the floor (>= 5x vs the
   1.5.0 per-entry reference), when the midpoint-grid DCT (what every
   one-attribute update past the crossover, registration and
   reconstruction runs) is under ``TRANSFORM_FLOOR`` (10x) the
   recurrence's projection at the process fleet's shard shape, or when
   a cold sign fill or ``distinct_cells`` on a Zipf batch is under
   ``INGEST_KERNEL_FLOOR`` (2x) its reference (the result's
   ``ingest_kernels`` table), or when a blocked AGMS registration or
   skimmed join (the result's ``sign_contractions`` table) peaks above
   ``CONTRACTION_PEAK_CEILING`` (1/8) of the dense formula's tracemalloc
   peak or runs under its ``CONTRACTION_FLOORS`` speedup: a skimmed join
   no slower than the dense formula, a registration within 2.5x of it.
   The peak check is deterministic.  Each ratio is measured in one run,
   so a slow runner cannot fake a regression.

The optional ``--telemetry-result`` / ``--otel-result`` /
``--fleet-result`` / ``--bounds-result`` inputs take the JSON written by
``bench_telemetry_overhead.py``, ``bench_otel_overhead.py``,
``bench_fleet_overhead.py``, and ``bench_bounds_overhead.py`` and fold
their best-round overheads into the same trajectory entry, so the
observability, serve-path, and bound-maintenance costs ride the same
history as the kernel speedup.  Those benches enforce their own
ceilings when they run; the gate records, it does not re-judge.

Usage (as in ``.github/workflows/ci.yml``)::

    python scripts/bench_gate.py \
        --result bench-artifacts/fastpath.json \
        --telemetry-result bench-artifacts/telemetry_overhead.json \
        --otel-result bench-artifacts/otel_overhead.json \
        --fleet-result bench-artifacts/fleet_overhead.json \
        --bounds-result bench-artifacts/bounds_overhead.json \
        --trajectory BENCH_trajectory.json
"""

import argparse
import json
import os
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

DEFAULT_FLOOR = 5.0
TRANSFORM_FLOOR = 10.0  # the DCT vs the recurrence's projection, same run
INGEST_KERNEL_FLOOR = 2.0  # sign fill vs Horner, distinct_cells vs np.unique, same run
INGEST_KERNELS = ("sign_fill", "distinct_cells")
# Blocked registration and skimmed join vs the dense formulas, same run;
# each floor is below half the lowest measured ratio (0.96x and 2.27x).
CONTRACTION_FLOORS = {"registration": 0.4, "skimmed_join": 1.0}
CONTRACTION_PEAK_CEILING = 1 / 8  # their tracemalloc peaks over the dense formulas
TAIL = 10  # trajectory entries echoed into the CI log


def _commit() -> str:
    sha = os.environ.get("GITHUB_SHA")
    if sha:
        return sha[:12]
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def load_trajectory(path: Path) -> dict:
    """Load the persisted trajectory, bootstrapping an empty one if absent."""
    if path.is_file():
        with path.open() as handle:
            trajectory = json.load(handle)
        if trajectory.get("version") != 1 or not isinstance(
            trajectory.get("entries"), list
        ):
            raise SystemExit(f"unrecognized trajectory file: {path}")
        return trajectory
    return {"version": 1, "entries": []}


def make_entry(
    result: dict,
    telemetry_result: dict | None = None,
    otel_result: dict | None = None,
    fleet_result: dict | None = None,
    bounds_result: dict | None = None,
) -> dict:
    kernel, projection, ingest = result["kernel"], result["projection"], result["ingest"]
    entry = {
        "commit": _commit(),
        "run_id": os.environ.get("GITHUB_RUN_ID", ""),
        "recorded_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "backend": result["backend"],
        "kernel_speedup": round(kernel["speedup"], 3),
        "kernel_order": kernel["order"],
        "kernel_cols": kernel["cols"],
        "projection_speedup": round(projection["speedup"], 3),
        "projection_peak_mb": round(projection["peak_bytes"] / 2**20, 3),
        "transform_speedup": round(result["transform"]["speedup"], 3),
        **{
            f"{title}_speedup": round(result["ingest_kernels"][title]["speedup"], 3)
            for title in INGEST_KERNELS
        },
        **{
            f"{title}_{key}": round(result["sign_contractions"][title][key], 3)
            for title in CONTRACTION_FLOORS
            for key in ("speedup", "peak_ratio")
        },
        "fastpath_tps": round(ingest["fastpath_tps_best"]),
        "reference_tps": round(ingest["reference_tps_best"]),
        "ingest_ratio": round(ingest["ingest_ratio"], 3),
    }
    if telemetry_result is not None:
        entry["telemetry_overhead"] = round(telemetry_result["overhead_best"], 4)
    if otel_result is not None:
        entry["otel_overhead"] = round(otel_result["overhead_best"], 4)
        entry["otel_export_tps"] = round(otel_result["export_tps_best"])
    if fleet_result is not None:
        entry["fleet_overhead"] = round(fleet_result["overhead_best"], 4)
        entry["fleet_tps"] = round(fleet_result["socket_tps_best"])
    if bounds_result is not None:
        entry["bounds_overhead"] = round(bounds_result["overhead_best"], 4)
        entry["bounds_tps"] = round(bounds_result["bounded_tps_best"])
    return entry


def _overhead_cell(entry: dict, key: str) -> str:
    value = entry.get(key)
    return f"{value * 100:+6.1f}%" if value is not None else f"{'-':>7}"


def _speedup_cell(entry: dict, key: str) -> str:
    value = entry.get(key)  # entries older than the projection gate lack it
    return f"{value:>7.2f}x" if value is not None else f"{'-':>8}"


def _print_tail(entries: list) -> None:
    print(f"benchmark trajectory ({len(entries)} entries, last {TAIL}):")
    print(
        f"  {'commit':<13} {'speedup':>8} {'project':>8} {'dct':>8} {'signs':>8} {'cells':>8}"
        f" {'register':>8} {'skimmed':>8}"
        f" {'ingest tps':>12} {'ratio':>6} {'telem':>7} {'otlp':>7} {'fleet':>7} {'bound':>7}"
        "  backend"
    )
    for entry in entries[-TAIL:]:
        print(
            f"  {entry['commit']:<13} {entry['kernel_speedup']:>7.2f}x"
            f" {_speedup_cell(entry, 'projection_speedup')}"
            f" {_speedup_cell(entry, 'transform_speedup')}"
            f" {_speedup_cell(entry, 'sign_fill_speedup')}"
            f" {_speedup_cell(entry, 'distinct_cells_speedup')}"
            f" {_speedup_cell(entry, 'registration_speedup')}"
            f" {_speedup_cell(entry, 'skimmed_join_speedup')}"
            f" {entry['fastpath_tps']:>12,} {entry['ingest_ratio']:>5.2f}x"
            f" {_overhead_cell(entry, 'telemetry_overhead')}"
            f" {_overhead_cell(entry, 'otel_overhead')}"
            f" {_overhead_cell(entry, 'fleet_overhead')}"
            f" {_overhead_cell(entry, 'bounds_overhead')}"
            f"  {entry['backend']}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--result", required=True, help="bench_fastpath.py JSON output")
    parser.add_argument(
        "--telemetry-result", help="bench_telemetry_overhead.py JSON output (optional)"
    )
    parser.add_argument(
        "--otel-result", help="bench_otel_overhead.py JSON output (optional)"
    )
    parser.add_argument(
        "--fleet-result", help="bench_fleet_overhead.py JSON output (optional)"
    )
    parser.add_argument(
        "--bounds-result", help="bench_bounds_overhead.py JSON output (optional)"
    )
    parser.add_argument(
        "--trajectory", required=True, help="persisted BENCH_trajectory.json path"
    )
    parser.add_argument("--floor", type=float, default=DEFAULT_FLOOR)
    args = parser.parse_args(argv)

    with open(args.result) as handle:
        result = json.load(handle)
    telemetry_result = otel_result = fleet_result = bounds_result = None
    if args.telemetry_result:
        with open(args.telemetry_result) as handle:
            telemetry_result = json.load(handle)
    if args.otel_result:
        with open(args.otel_result) as handle:
            otel_result = json.load(handle)
    if args.fleet_result:
        with open(args.fleet_result) as handle:
            fleet_result = json.load(handle)
    if args.bounds_result:
        with open(args.bounds_result) as handle:
            bounds_result = json.load(handle)

    trajectory_path = Path(args.trajectory)
    trajectory = load_trajectory(trajectory_path)
    entry = make_entry(
        result, telemetry_result, otel_result, fleet_result, bounds_result
    )
    trajectory["entries"].append(entry)
    with trajectory_path.open("w") as handle:
        json.dump(trajectory, handle, indent=1)
        handle.write("\n")

    _print_tail(trajectory["entries"])

    previous = [e["kernel_speedup"] for e in trajectory["entries"][:-1]]
    if previous and entry["kernel_speedup"] < 0.8 * max(previous):
        print(
            f"WARNING: kernel speedup {entry['kernel_speedup']:.2f}x is >20% below"
            f" the trajectory best ({max(previous):.2f}x) — runner noise or a"
            " creeping regression; the floor below is the hard gate"
        )
    failed = False
    for title in ("kernel", "projection"):
        if entry[f"{title}_speedup"] < args.floor:
            print(
                f"FAIL: fastpath {title} speedup {entry[f'{title}_speedup']:.2f}x is below"
                f" the {args.floor:.0f}x floor vs the 1.5.0 reference"
            )
            failed = True
    if entry["transform_speedup"] < TRANSFORM_FLOOR:
        print(
            f"FAIL: fastpath transform speedup {entry['transform_speedup']:.2f}x is below"
            f" the {TRANSFORM_FLOOR:.0f}x floor vs the recurrence's projection"
        )
        failed = True
    for title in INGEST_KERNELS:
        if entry[f"{title}_speedup"] < INGEST_KERNEL_FLOOR:
            print(
                f"FAIL: ingest kernel {title} speedup {entry[f'{title}_speedup']:.2f}x is below"
                f" the {INGEST_KERNEL_FLOOR:.0f}x floor vs its reference"
            )
            failed = True
    for title, floor in CONTRACTION_FLOORS.items():
        if entry[f"{title}_peak_ratio"] > CONTRACTION_PEAK_CEILING:
            print(
                f"FAIL: sign contraction {title} peaks at {entry[f'{title}_peak_ratio']:.3f} of"
                f" the dense formula's, above the {CONTRACTION_PEAK_CEILING:.3f} ceiling"
            )
            failed = True
        if entry[f"{title}_speedup"] < floor:
            print(
                f"FAIL: sign contraction {title} speedup {entry[f'{title}_speedup']:.2f}x is"
                f" below the {floor:.1f}x floor vs the dense formula"
            )
            failed = True
    if failed:
        return 1
    print(
        f"bench gate OK: kernel {entry['kernel_speedup']:.2f}x and projection"
        f" {entry['projection_speedup']:.2f}x >= {args.floor:.0f}x floor"
        f" (projection peak {entry['projection_peak_mb']:.2f} MB),"
        f" transform {entry['transform_speedup']:.2f}x >= {TRANSFORM_FLOOR:.0f}x floor,"
        f" sign fill {entry['sign_fill_speedup']:.2f}x and distinct cells"
        f" {entry['distinct_cells_speedup']:.2f}x >= {INGEST_KERNEL_FLOOR:.0f}x floor,"
        f" registration {entry['registration_speedup']:.2f}x and skimmed join"
        f" {entry['skimmed_join_speedup']:.2f}x at {entry['registration_peak_ratio']:.3f}"
        f" and {entry['skimmed_join_peak_ratio']:.3f} of the dense peaks"
        f" (ceiling {CONTRACTION_PEAK_CEILING:.3f}),"
        f" ingest at {entry['fastpath_tps']:,} tuples/s"
        f" ({entry['ingest_ratio']:.2f}x the reference backend)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
