"""Range selectivity estimation: the section 2 mainstream, measured.

The paper positions join estimation as the hard case and notes most prior
stream work "concentrates on point and range query estimation".  This
bench covers that mainstream with the same synopses: random range COUNT
queries over a smooth-ish CPS-like Age-Education population and a rough
Zipfian distribution, cosine vs equi-width histogram vs Haar wavelet at
equal space.  Expected shape: all three are usable; the transform methods
(cosine, wavelet) win on the smooth data, the histogram is competitive on
rough data at coarse ranges; and the cosine synopsis answers from the
same state that serves joins — no dedicated structure needed.
"""

import numpy as np

from repro.core.normalization import Domain
from repro.core.range_query import estimate_range_count
from repro.core.synopsis import CosineSynopsis
from repro.data.reallike import cps_like
from repro.data.zipf import zipf_counts
from repro.histograms.equiwidth import EquiWidthHistogram
from repro.wavelets.haar import HaarSynopsis

BUDGET = 32
NUM_QUERIES = 200


def _histogram_range(hist: EquiWidthHistogram, lo: int, hi: int) -> float:
    """Uniform-within-bucket range count from an equi-width histogram."""
    total = 0.0
    for b in range(hist.num_buckets):
        b_lo, b_hi = int(hist.boundaries[b]), int(hist.boundaries[b + 1]) - 1
        overlap = min(hi, b_hi) - max(lo, b_lo) + 1
        if overlap > 0:
            total += hist.counts[b] * overlap / (b_hi - b_lo + 1)
    return total


def _wavelet_range(syn: HaarSynopsis, lo: int, hi: int) -> float:
    return float(syn.reconstruct_counts()[lo : hi + 1].sum())


def _mean_error(counts: np.ndarray, rng: np.random.Generator) -> dict[str, float]:
    n = len(counts)
    domain = Domain.of_size(n)
    cosine = CosineSynopsis.from_counts(domain, counts, budget=BUDGET)
    hist = EquiWidthHistogram.from_counts(domain, counts, BUDGET)
    haar = HaarSynopsis.from_counts(domain, counts, BUDGET)

    errors = {"cosine": [], "histogram": [], "wavelet": []}
    for _ in range(NUM_QUERIES):
        lo = int(rng.integers(0, n - 1))
        hi = int(rng.integers(lo, n))
        hi = min(hi, n - 1)
        actual = float(counts[lo : hi + 1].sum())
        if actual <= 0:
            continue
        errors["cosine"].append(abs(estimate_range_count(cosine, lo, hi) - actual) / actual)
        errors["histogram"].append(abs(_histogram_range(hist, lo, hi) - actual) / actual)
        errors["wavelet"].append(abs(_wavelet_range(haar, lo, hi) - actual) / actual)
    return {m: float(np.mean(v)) for m, v in errors.items()}


def test_range_selectivity(benchmark, capsys):
    def sweep():
        rng = np.random.default_rng(0)
        smooth = cps_like(1, rng).counts.sum(axis=1).astype(float)
        rough = zipf_counts(512, 1.0, 100_000)[rng.permutation(512)].astype(float)
        return {
            "smooth (CPS Age)": _mean_error(smooth, rng),
            "rough (permuted zipf)": _mean_error(rough.astype(float), rng),
        }

    table = benchmark.pedantic(sweep, iterations=1, rounds=1)
    with capsys.disabled():
        print(f"\nrandom range queries, {BUDGET} counters per synopsis, "
              f"mean relative error over {NUM_QUERIES} queries:")
        for dataset, row in table.items():
            rendered = "  ".join(f"{m}: {e * 100:6.2f}%" for m, e in row.items())
            print(f"  {dataset:<22} {rendered}")
    smooth = table["smooth (CPS Age)"]
    # On smooth data every method is in a usable regime and the cosine
    # synopsis is competitive with the dedicated range structures.
    assert smooth["cosine"] < 0.2
    assert smooth["cosine"] < 2.5 * min(smooth["histogram"], smooth["wavelet"]) + 0.02
