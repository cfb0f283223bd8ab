"""Sampling-based join size estimators (Hou et al. 1988 lineage).

The COUNT estimator for a join of independently sampled streams is the
scaled sample cross-product:

    J_hat = |S1 join S2| / (p1 * p2)                (Bernoulli samples)
    J_hat = |S1 join S2| * (N1 N2) / (k1 k2)        (reservoir samples)

The Bernoulli form is exactly unbiased (E[s1(v)] = p1 f1(v) with
independent samples); the reservoir form is the standard consistent
estimator.  A normal-approximation confidence interval is provided from the
per-value variance decomposition of the cross-product statistic.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .reservoir import BernoulliSample, ReservoirSample


@dataclass(frozen=True)
class SampleJoinEstimate:
    """A sampling join estimate with a normal-approximation interval."""

    estimate: float
    std_error: float

    def confidence_interval(self, z: float = 1.96) -> tuple[float, float]:
        """Approximate two-sided CI; default ``z`` = 95%."""
        return (self.estimate - z * self.std_error, self.estimate + z * self.std_error)


def _sample_cross_count(a: Counter[Any], b: Counter[Any]) -> float:
    """``sum_v a(v) * b(v)`` iterating the smaller counter."""
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    return float(sum(c * large.get(v, 0) for v, c in small.items()))


def estimate_join_size_bernoulli(a: BernoulliSample, b: BernoulliSample) -> SampleJoinEstimate:
    """Unbiased join size estimate from two independent Bernoulli samples.

    Both samples must sit on the same one-dimensional grid: the join
    attribute's unified domain.
    """
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"samples on grids {a.shape} and {b.shape} do not join on one attribute")
    scale = 1.0 / (a.probability * b.probability)
    _, ia, ib = np.intersect1d(a.cells, b.cells, assume_unique=True, return_indices=True)
    dtype = _exact_dtype([a, b])
    ca, cb = a.counts[ia], b.counts[ib]
    estimate = int(ca.astype(dtype) @ cb.astype(dtype)) * scale
    # Var[s1(v) s2(v)] for independent binomial thinnings, summed over the
    # sampled support, gives a plug-in variance for the scaled statistic.
    fa, fb = ca / a.probability, cb / b.probability
    var = float(
        np.sum(
            fa * fb * (1 - a.probability) * (1 - b.probability)
            + fa * fb**2 * a.probability * (1 - a.probability)
            + fb * fa**2 * b.probability * (1 - b.probability)
        )
    ) / (a.probability * b.probability)
    return SampleJoinEstimate(estimate=estimate, std_error=float(np.sqrt(max(var, 0.0))))


def estimate_join_size_reservoir(a: ReservoirSample, b: ReservoirSample) -> SampleJoinEstimate:
    """Join size estimate from two reservoir samples."""
    ka, kb = a.sampled_size, b.sampled_size
    if ka == 0 or kb == 0:
        return SampleJoinEstimate(estimate=0.0, std_error=0.0)
    scale = (a.stream_size * b.stream_size) / (ka * kb)
    cross = _sample_cross_count(a.value_counts(), b.value_counts())
    estimate = cross * scale
    # Crude plug-in standard error: treat the cross count as a sum of
    # cross-matches with binomial-like dispersion.
    std_error = scale * float(np.sqrt(max(cross, 1.0)))
    return SampleJoinEstimate(estimate=estimate, std_error=std_error)


def estimate_chain_join_size_samples(samples: Sequence[BernoulliSample]) -> float:
    """Chain multi-join estimate from per-relation Bernoulli samples.

    Sample ``i`` sits on relation ``i``'s grid of unified join-domain
    indices: one axis at either end of the chain, and (left join value,
    right join value) for an inner relation.  The estimate is the exact
    chain join of the samples scaled by ``1 / prod_i p_i``.
    """
    if len(samples) < 2:
        raise ValueError("a chain join needs at least two relations")
    first, *inner, last = samples
    if first.ndim != 1 or last.ndim != 1 or any(s.ndim != 2 for s in inner):
        raise ValueError(
            "inner relations of a chain must have two attributes, and its ends one"
        )
    for left, right in zip(samples, samples[1:]):
        if left.shape[-1] != right.shape[0]:
            raise ValueError(
                f"chain link grids differ in length ({left.shape[-1]} vs {right.shape[0]})"
            )

    # Dynamic-programming pass over the chain: partial[v] is the number of
    # sample-tuple combinations ending with join value v.
    dtype = _exact_dtype(samples)
    partial = np.zeros(first.shape[0], dtype=dtype)
    partial[first.cells] = first.counts.astype(dtype)
    for sample in inner:
        left, right = np.unravel_index(sample.cells, sample.shape)
        nxt = np.zeros(sample.shape[1], dtype=dtype)
        np.add.at(nxt, right, partial[left] * sample.counts)
        partial = nxt
    total = partial[last.cells] @ last.counts

    scale = 1.0
    for sample in samples:
        scale /= sample.probability
    return int(total) * scale


def _exact_dtype(samples: Sequence[BernoulliSample]) -> Any:
    """int64 when it holds every cross count of ``samples``, else Python ints.

    A partial cross count never exceeds the product of the sample sizes.
    """
    return np.int64 if math.prod(s.sampled_size for s in samples) < 2**63 else object
