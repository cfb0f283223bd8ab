"""Fastpath kernel speedup: the recurrence must beat the reference by >= 5x.

``repro.fastpath`` replaces per-entry trig evaluation of the cosine basis
table with a Chebyshev three-term recurrence (one ``np.cos`` call per
batch instead of ``order`` of them).  This benchmark measures both layers
of that claim:

* **kernel** — ``phi_block`` (active backend) vs ``phi_block_reference``
  (the 1.5.0 seed implementation, kept as the in-run baseline) building
  the same ``(order, B)`` basis table.  The CI gate enforces a >= 5x
  speedup floor on this ratio: it is self-normalizing, so a slow runner
  cannot fake a regression.
* **projection** — ``phi_block(order, positions, weights=w)``, the form
  every coefficient update and batch build runs, vs
  ``phi_block_reference(order, positions) @ w``, with the projection's
  tracemalloc peak.  The gate holds it to the same floor.
* **transform** — one batch's coefficient change at the process fleet's
  shard shape (domain 16,384, order 1,024, 8,192 uniform rows): the
  midpoint-grid DCT, ``phi_block(order, cells, weights=w, midpoint=n)``,
  vs the recurrence's projection form over the batch's distinct cells,
  the path it replaced for one-attribute synopses.  The gate holds it to
  a >= 10x floor, self-normalizing like the others.
* **ingest kernels** — the two fixed costs every new engine pays on its
  first batches: a cold sign fill (a fresh ``SignFamily`` over 4,096
  values x 255 functions, as one AGMS query holds) vs a Horner-rule
  reference kept in this file, and ``distinct_cells`` on one Zipf batch
  (8,192 rows over 4,096 cells) vs the ``np.unique`` it replaced.  The
  gate holds each row to a >= 2x floor.
* **sign contractions** — the two AGMS reads that project onto a whole
  sign matrix, each against the dense formula it replaced, kept in this
  file: registering a sketch on 16,384 values at ``S = 255``
  (``AGMSSketch.from_counts``, the family's table already filled, so both
  sides time the contraction alone) and a skimmed join over 4,096 values.
  Each row reports best-round time and tracemalloc peak; the gate holds
  each peak to at most 1/8 of its reference's, a skimmed join to no
  slower and a registration, which casts as many signs as the dense
  formula, to within 2.5x.
* **ingest** — end-to-end single-thread cosine ingest (tuples/s) with the
  active backend vs with the ``reference`` backend, recorded into the CI
  benchmark trajectory (``BENCH_trajectory.json``) so the floor has a
  history, not just a pass/fail bit.

Timing noise on shared CI runners is real, so every table takes the best
round of several rounds that alternate the two sides: the claim is about
the code, not about one noisy measurement.

Runnable standalone for the CI bench gate::

    python benchmarks/bench_fastpath.py --smoke --json out.json
"""

import time
import tracemalloc

import numpy as np

from repro.core.normalization import Domain, distinct_cells
from repro.fastpath import backend_name, phi_block, phi_block_reference, set_backend
from repro.fastpath.recurrence import phi_project_numpy
from repro.obs import Telemetry
from repro.sketches.basic import AGMSSketch, median, median_of_means
from repro.sketches.hashing import MERSENNE_P, SignFamily
from repro.sketches.skimmed import estimate_join_size_skimmed, skim_threshold
from repro.streams import JoinQuery, StreamEngine

ORDER = 1_024
COLS = 4_096  # wide enough to amortize the per-row python loop (see recurrence.py)
SPEEDUP_FLOOR = 5.0  # recurrence vs reference basis construction, best round
TRANSFORM_DOMAIN = 16_384  # the process fleet's shard shape
TRANSFORM_ORDER = 1_024
TRANSFORM_ROWS = 8_192
TRANSFORM_FLOOR = 10.0  # DCT vs the recurrence's projection, best round
SIGN_DOMAIN = 4_096  # one AGMS query's sign family on the Zipf ingest workload
SIGN_FUNCTIONS = 255
CELLS_DOMAIN = 4_096  # one Zipf ingest batch
CELLS_ROWS = 8_192
INGEST_KERNEL_FLOOR = 2.0  # power-basis signs and counted cells vs their references
REGISTRATION_DOMAIN = 16_384
SKIMMED_DOMAIN = 4_096
CONTRACTION_FUNCTIONS = (51, 5)  # (s1, s2): S = 255
# Blocked contractions vs the dense formulas, best round.  Each floor sits
# below half the lowest measured ratio: a skimmed join is no slower
# (2.3-3.0x measured); registration, which casts as many signs either way
# (0.96-1.49x measured here), is held to within 2.5x.
CONTRACTION_FLOORS = {"registration": 0.4, "skimmed_join": 1.0}
CONTRACTION_PEAK_CEILING = 1 / 8  # blocked peak over the dense formula's, at most
INGEST_TUPLES = 32_768
INGEST_BUDGET = 200
INGEST_DOMAIN = 2_000
BATCH = 1_024
ROUNDS = 5


def _seconds(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _speedup_table(rounds: int, reference, fast, floor: float = SPEEDUP_FLOOR, **shape) -> dict:
    """Best-round seconds of two callables computing the same thing, and their ratio.

    The rounds alternate the two sides, so a slow stretch of a shared
    runner lands on both rather than on whichever ran second.  ``shape``
    labels the table (``order=``, ``cols=``, ...).
    """
    # Warm both paths once so allocator/cache effects hit neither side.
    reference()
    fast()
    reference_s = fast_s = float("inf")
    for _ in range(rounds):
        reference_s = min(reference_s, _seconds(reference))
        fast_s = min(fast_s, _seconds(fast))
    return {
        **shape,
        "rounds": rounds,
        "backend": backend_name(),
        "reference_seconds_best": reference_s,
        "fastpath_seconds_best": fast_s,
        "speedup": reference_s / fast_s,
        "speedup_floor": floor,
    }


def kernel_table(order: int = ORDER, cols: int = COLS, rounds: int = ROUNDS) -> dict:
    """Basis-table construction: active backend vs the 1.5.0 reference."""
    positions = np.linspace(0.0, 1.0, cols)
    out = np.empty((order, cols))
    return _speedup_table(
        rounds,
        lambda: phi_block_reference(order, positions, out=out),
        lambda: phi_block(order, positions, out=out),
        order=order,
        cols=cols,
    )


def kernel_projection(order: int = ORDER, cols: int = COLS, rounds: int = ROUNDS) -> dict:
    """The projection form on the active backend vs the reference table's product."""
    positions = np.linspace(0.0, 1.0, cols)
    weights = np.random.default_rng(0).integers(1, 5, size=cols).astype(float)
    table = _speedup_table(
        rounds,
        lambda: phi_block_reference(order, positions) @ weights,
        lambda: phi_block(order, positions, weights=weights),
        order=order,
        cols=cols,
    )
    tracemalloc.start()
    try:
        phi_block(order, positions, weights=weights)
        table["peak_bytes"] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return table


def transform_table(rounds: int = ROUNDS) -> dict:
    """One uniform batch at the fleet shape: the DCT vs the recurrence's projection.

    ``reference_seconds_best`` is the recurrence here (the path the DCT
    replaced for one-attribute midpoint synopses), not the 1.5.0 kernel.
    """
    n, order = TRANSFORM_DOMAIN, TRANSFORM_ORDER
    rows = np.random.default_rng(0).integers(0, n, TRANSFORM_ROWS)
    cells, counts = np.unique(rows, return_counts=True)
    weights = counts.astype(float)
    positions = (2.0 * cells + 1.0) / (2.0 * n)
    return _speedup_table(
        rounds,
        lambda: phi_project_numpy(order, positions, weights),
        lambda: phi_block(order, cells, weights=weights, midpoint=n),
        floor=TRANSFORM_FLOOR,
        order=order,
        cols=cells.shape[0],
        domain=n,
    )


def horner_signs(family: SignFamily, values: np.ndarray) -> np.ndarray:
    """``(B, S)`` signs by Horner's rule, one remainder pass per degree.

    The sign kernel before the power basis, kept here as the baseline:
    blocks of 65,536 cells, each degree ``acc = (acc * x + c) % p``.
    """
    coeffs = family._coeffs
    out = np.empty((values.shape[0], family.num_functions), dtype=np.int8)
    width = max(1, (1 << 16) // family.num_functions)
    for start in range(0, values.shape[0], width):
        x = values[start : start + width].astype(np.uint64)[:, None]
        acc = np.empty((x.shape[0], family.num_functions), dtype=np.uint64)
        acc[:] = coeffs[:, 0]
        for degree in range(1, coeffs.shape[1]):
            np.multiply(acc, x, out=acc)
            np.add(acc, coeffs[:, degree], out=acc)
            np.remainder(acc, MERSENNE_P, out=acc)
        block = out[start : start + width]
        np.bitwise_and(acc, 1, out=block, casting="unsafe")
        block *= 2
        block -= 1
    return out


def ingest_kernels(rounds: int = ROUNDS) -> dict:
    """The sign fill and distinct-cell kernels vs the references they replaced.

    ``sign_fill`` builds a fresh family and hashes its whole domain on
    both sides; ``distinct_cells`` collapses one Zipf batch.  Each row
    checks once that both sides agree before timing them.
    """
    n, s = SIGN_DOMAIN, SIGN_FUNCTIONS
    values = np.arange(n)

    def reference_fill():
        family = SignFamily(n, s, seed=0)
        table = np.zeros((n, s), dtype=np.int8)
        table[values] = horner_signs(family, values)
        return table.T

    def fast_fill():
        return SignFamily(n, s, seed=0).sign_matrix()

    np.testing.assert_array_equal(fast_fill(), reference_fill())
    rng = np.random.default_rng(0)
    batch = ((rng.zipf(1.3, CELLS_ROWS) - 1) % CELLS_DOMAIN)[:, None]

    def reference_cells():
        flat = np.ravel_multi_index(tuple(batch.T), (CELLS_DOMAIN,))
        return np.unique(flat, return_index=True, return_counts=True)

    def fast_cells():
        return distinct_cells(batch, (CELLS_DOMAIN,))

    for want, have in zip(reference_cells(), fast_cells()):
        np.testing.assert_array_equal(have, want)
    return {
        "sign_fill": _speedup_table(
            rounds, reference_fill, fast_fill, floor=INGEST_KERNEL_FLOOR, domain=n, functions=s
        ),
        "distinct_cells": _speedup_table(
            rounds,
            reference_cells,
            fast_cells,
            floor=INGEST_KERNEL_FLOOR,
            rows=CELLS_ROWS,
            domain=CELLS_DOMAIN,
        ),
    }


def dense_registration(family: SignFamily, counts: np.ndarray) -> np.ndarray:
    """A one-axis sketch's atoms through the whole-domain float copy of its signs.

    The contraction ``AGMSSketch.from_counts`` ran before it was blocked.
    """
    return family.sign_matrix().astype(float) @ np.asarray(counts, dtype=float)


def dense_skimmed_join(a: AGMSSketch, b: AGMSSketch) -> float:
    """The skimmed join through the ``(n, S)`` element-wise products it replaced."""
    s1, s2 = a.num_means, a.num_medians
    signs = a.families[0].sign_matrix()
    parts = []
    for sketch in (a, b):
        per_value = (signs.T * sketch.atoms).reshape(-1, s2, s1)
        f_hat = median(per_value.mean(axis=2), axis=1)
        dense = np.where(f_hat >= skim_threshold(sketch), np.maximum(np.rint(f_hat), 0.0), 0.0)
        held = np.flatnonzero(dense)
        projected = signs[:, held] @ dense[held]
        parts.append((dense, projected, sketch.atoms - projected))
    (dense_a, proj_a, residual_a), (dense_b, proj_b, residual_b) = parts
    return (
        float(dense_a @ dense_b)
        + median_of_means(proj_a * residual_b, s1, s2)
        + median_of_means(residual_a * proj_b, s1, s2)
        + median_of_means(residual_a * residual_b, s1, s2)
    )


def _peak_bytes(fn) -> int:
    """tracemalloc peak of one call, beyond what was allocated before it."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def sign_contractions(rounds: int = ROUNDS) -> dict:
    """Blocked AGMS registration and skimmed join vs the dense formulas they replaced.

    Both rows read a sign table filled before timing, so neither side pays
    for hashing; each checks once that both sides agree.
    """
    s1, s2 = CONTRACTION_FUNCTIONS
    rng = np.random.default_rng(0)
    registered = SignFamily(REGISTRATION_DOMAIN, s1 * s2, seed=0)
    registered.fill(np.arange(REGISTRATION_DOMAIN))
    counts = rng.integers(0, 50, REGISTRATION_DOMAIN)

    def reference_registration():
        return dense_registration(registered, counts)

    def fast_registration():
        return AGMSSketch.from_counts(registered, counts, s1, s2).atoms

    np.testing.assert_array_equal(fast_registration(), reference_registration())
    joined = SignFamily(SKIMMED_DOMAIN, s1 * s2, seed=1)
    joined.fill(np.arange(SKIMMED_DOMAIN))
    ends = [rng.integers(0, 50, SKIMMED_DOMAIN) for _ in range(2)]
    for end, heavy in zip(ends, (7, 9)):
        end[heavy] = 100_000
    a, b = (AGMSSketch.from_counts(joined, end, s1, s2) for end in ends)

    def reference_join():
        return dense_skimmed_join(a, b)

    def fast_join():
        return estimate_join_size_skimmed(a, b).estimate

    assert fast_join() == reference_join()
    rows = {}
    for title, reference, fast, domain in (
        ("registration", reference_registration, fast_registration, REGISTRATION_DOMAIN),
        ("skimmed_join", reference_join, fast_join, SKIMMED_DOMAIN),
    ):
        row = _speedup_table(
            rounds, reference, fast, CONTRACTION_FLOORS[title], domain=domain, functions=s1 * s2
        )
        row["reference_peak_bytes"] = _peak_bytes(reference)
        row["fastpath_peak_bytes"] = _peak_bytes(fast)
        row["peak_ratio"] = row["fastpath_peak_bytes"] / row["reference_peak_bytes"]
        row["peak_ceiling"] = CONTRACTION_PEAK_CEILING
        rows[title] = row
    return rows


def contraction_failures(rows: dict) -> list:
    """One line per sign-contraction row over its peak ceiling or under its time floor."""
    failures = []
    for title, row in rows.items():
        if row["peak_ratio"] > row["peak_ceiling"]:
            failures.append(
                f"sign contraction {title} peak {row['fastpath_peak_bytes'] / 2**20:.2f} MB is"
                f" {row['peak_ratio']:.3f} of the dense formula's, above {row['peak_ceiling']:.3f}"
            )
        if row["speedup"] < row["speedup_floor"]:
            failures.append(
                f"sign contraction {title} speedup {row['speedup']:.2f}x is below"
                f" the {row['speedup_floor']:.1f}x floor vs the dense formula"
            )
    return failures


def _ingest_seconds(tuples: int, batch: int = BATCH) -> float:
    """Wall-clock seconds for single-thread cosine ingest of ``tuples`` rows."""
    engine = StreamEngine(seed=0, telemetry=Telemetry.disabled())
    domain = Domain.of_size(INGEST_DOMAIN)
    engine.create_relation("R1", ["A"], [domain])
    engine.create_relation("R2", ["A"], [domain])
    query = JoinQuery.parse(["R1", "R2"], ["R1.A = R2.A"])
    engine.register_query("q", query, method="cosine", budget=INGEST_BUDGET)
    rows = ((np.random.default_rng(0).zipf(1.3, size=tuples) - 1) % INGEST_DOMAIN)[:, None]
    start = time.perf_counter()
    for name in ("R1", "R2"):
        for lo in range(0, tuples, batch):
            engine.ingest_batch(name, rows[lo : lo + batch])
    return time.perf_counter() - start


def ingest_table(tuples: int = INGEST_TUPLES, rounds: int = ROUNDS) -> dict:
    """End-to-end cosine ingest with the active backend vs ``reference``."""
    active = backend_name()
    fast_times, reference_times = [], []
    for _ in range(rounds):
        previous = set_backend("reference")
        try:
            reference_times.append(_ingest_seconds(tuples))
        finally:
            set_backend(previous)
        fast_times.append(_ingest_seconds(tuples))
    return {
        "tuples_per_relation": tuples,
        "batch": BATCH,
        "budget": INGEST_BUDGET,
        "rounds": rounds,
        "backend": active,
        "reference_tps_best": 2 * tuples / min(reference_times),
        "fastpath_tps_best": 2 * tuples / min(fast_times),
        "ingest_ratio": min(reference_times) / min(fast_times),
    }


def fastpath_report(
    order: int = ORDER,
    cols: int = COLS,
    tuples: int = INGEST_TUPLES,
    rounds: int = ROUNDS,
) -> dict:
    return {
        "backend": backend_name(),
        "kernel": kernel_table(order=order, cols=cols, rounds=rounds),
        "projection": kernel_projection(order=order, cols=cols, rounds=rounds),
        "transform": transform_table(rounds=rounds),
        "ingest_kernels": ingest_kernels(rounds=rounds),
        "sign_contractions": sign_contractions(rounds=rounds),
        "ingest": ingest_table(tuples=tuples, rounds=rounds),
    }


def _print_report(report: dict) -> None:
    kernel, projection, ingest = report["kernel"], report["projection"], report["ingest"]
    print(f"fastpath backend: {report['backend']}")
    for title, table in (("kernel", kernel), ("projection", projection)):
        print(
            f"  {title} (order={table['order']}, B={table['cols']},"
            f" best of {table['rounds']}):"
        )
        print(f"    reference  {table['reference_seconds_best'] * 1e3:>9.3f} ms")
        print(f"    fastpath   {table['fastpath_seconds_best'] * 1e3:>9.3f} ms")
        print(
            f"    speedup    {table['speedup']:>9.2f}x"
            f"  (floor {table['speedup_floor']:.0f}x)"
        )
    print(f"    peak       {projection['peak_bytes'] / 2**20:>9.2f} MB (tracemalloc)")
    transform = report["transform"]
    print(
        f"  transform (n={transform['domain']}, order={transform['order']},"
        f" {transform['cols']} distinct cells, best of {transform['rounds']}):"
    )
    print(f"    recurrence {transform['reference_seconds_best'] * 1e3:>9.3f} ms")
    print(f"    DCT        {transform['fastpath_seconds_best'] * 1e3:>9.3f} ms")
    print(
        f"    speedup    {transform['speedup']:>9.2f}x"
        f"  (floor {transform['speedup_floor']:.0f}x)"
    )
    kernels = report["ingest_kernels"]
    fill, cells = kernels["sign_fill"], kernels["distinct_cells"]
    print(f"  ingest kernels (best of {fill['rounds']}):")
    print(
        f"    sign fill n={fill['domain']:,} S={fill['functions']}:"
        f" Horner {fill['reference_seconds_best'] * 1e3:.3f} ms,"
        f" power basis {fill['fastpath_seconds_best'] * 1e3:.3f} ms,"
        f" {fill['speedup']:.2f}x (floor {fill['speedup_floor']:.0f}x)"
    )
    print(
        f"    distinct cells {cells['rows']:,} Zipf rows over {cells['domain']:,}:"
        f" np.unique {cells['reference_seconds_best'] * 1e6:.0f} us,"
        f" counted {cells['fastpath_seconds_best'] * 1e6:.0f} us,"
        f" {cells['speedup']:.2f}x (floor {cells['speedup_floor']:.0f}x)"
    )
    print(f"  sign contractions (best of {fill['rounds']}):")
    for title, row in report["sign_contractions"].items():
        print(
            f"    {title} n={row['domain']:,} S={row['functions']}:"
            f" dense {row['reference_seconds_best'] * 1e3:.3f} ms"
            f" / {row['reference_peak_bytes'] / 2**20:.2f} MB,"
            f" blocked {row['fastpath_seconds_best'] * 1e3:.3f} ms"
            f" / {row['fastpath_peak_bytes'] / 2**20:.2f} MB,"
            f" {row['speedup']:.2f}x (floor {row['speedup_floor']:.1f}x),"
            f" peak {row['peak_ratio']:.3f} (ceiling {row['peak_ceiling']:.3f})"
        )
    print(
        f"  cosine ingest (2 x {ingest['tuples_per_relation']:,} tuples,"
        f" budget {ingest['budget']}):"
    )
    print(f"    reference  {ingest['reference_tps_best']:>12,.0f} tuples/s (best)")
    print(f"    fastpath   {ingest['fastpath_tps_best']:>12,.0f} tuples/s (best)")
    print(f"    ratio      {ingest['ingest_ratio']:>9.2f}x")


def test_kernel_speedup_above_floor(benchmark, capsys):
    """The recurrence basis kernel must beat the reference by >= 5x."""
    table = benchmark.pedantic(lambda: kernel_table(rounds=3), iterations=1, rounds=1)
    with capsys.disabled():
        print()
        print(
            f"  kernel speedup {table['speedup']:.2f}x"
            f" (floor {table['speedup_floor']:.0f}x, backend {table['backend']})"
        )
    assert table["speedup"] >= table["speedup_floor"]


def test_projection_speedup_above_floor(benchmark, capsys):
    """The projection form must beat the reference table's product by >= 5x."""
    table = benchmark.pedantic(lambda: kernel_projection(rounds=3), iterations=1, rounds=1)
    with capsys.disabled():
        print()
        print(
            f"  projection speedup {table['speedup']:.2f}x"
            f" (floor {table['speedup_floor']:.0f}x, peak {table['peak_bytes'] / 2**20:.2f} MB)"
        )
    assert table["speedup"] >= table["speedup_floor"]


def test_transform_speedup_above_floor(benchmark, capsys):
    """The midpoint DCT must beat the recurrence's projection by >= 10x at the fleet shape."""
    table = benchmark.pedantic(lambda: transform_table(rounds=3), iterations=1, rounds=1)
    with capsys.disabled():
        print()
        print(
            f"  transform speedup {table['speedup']:.2f}x"
            f" (floor {table['speedup_floor']:.0f}x, {table['cols']} cells)"
        )
    assert table["speedup"] >= table["speedup_floor"]


def test_ingest_kernels_above_floor(benchmark, capsys):
    """The sign fill and distinct-cell kernels must each beat their reference by >= 2x."""
    rows = benchmark.pedantic(lambda: ingest_kernels(rounds=3), iterations=1, rounds=1)
    with capsys.disabled():
        print()
        for title, row in rows.items():
            print(f"  {title} speedup {row['speedup']:.2f}x (floor {row['speedup_floor']:.0f}x)")
    for row in rows.values():
        assert row["speedup"] >= row["speedup_floor"]


def test_sign_contractions_within_bounds(benchmark, capsys):
    """Blocked registration and skimmed joins: at most 1/8 the peak, within their floors."""
    rows = benchmark.pedantic(lambda: sign_contractions(rounds=3), iterations=1, rounds=1)
    with capsys.disabled():
        print()
        for title, row in rows.items():
            print(
                f"  {title} speedup {row['speedup']:.2f}x, peak {row['peak_ratio']:.3f}"
                f" of the dense formula's"
            )
    assert contraction_failures(rows) == []


def test_fastpath_ingest_not_slower_than_reference(benchmark, capsys):
    """End-to-end cosine ingest must not regress vs the reference backend."""
    table = benchmark.pedantic(
        lambda: ingest_table(tuples=8_192, rounds=3), iterations=1, rounds=1
    )
    with capsys.disabled():
        print()
        print(f"  ingest ratio {table['ingest_ratio']:.2f}x vs reference backend")
    assert table["ingest_ratio"] > 0.9  # best-round, generous noise margin


def main(argv=None) -> int:
    """Standalone entry point: fastpath speedup benchmark for the CI gate."""
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="small, CI-sized workload")
    parser.add_argument("--order", type=int, default=None, help="basis order (m)")
    parser.add_argument("--cols", type=int, default=None, help="batch columns (B)")
    parser.add_argument("--tuples", type=int, default=None, help="tuples per relation")
    parser.add_argument("--rounds", type=int, default=ROUNDS)
    parser.add_argument("--json", help="write results to this JSON file")
    args = parser.parse_args(argv)

    tuples = args.tuples or (8_192 if args.smoke else INGEST_TUPLES)
    report = fastpath_report(
        order=args.order or ORDER,
        cols=args.cols or COLS,
        tuples=tuples,
        rounds=args.rounds,
    )
    _print_report(report)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=1)
        print(f"wrote {args.json}")
    failed = False
    tables = {title: report[title] for title in ("kernel", "projection", "transform")}
    tables.update(report["ingest_kernels"])
    for title, table in tables.items():
        if table["speedup"] < table["speedup_floor"]:
            print(
                f"FAIL: fastpath {title} speedup {table['speedup']:.2f}x"
                f" is below the {table['speedup_floor']:.0f}x floor in every round"
            )
            failed = True
    for failure in contraction_failures(report["sign_contractions"]):
        print(f"FAIL: {failure}")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
