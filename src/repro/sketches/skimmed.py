"""The skimmed sketch of Ganguly et al. [32].

The basic AGMS estimate has variance driven by the product of the streams'
self-join sizes, which is dominated by a few *dense* (high-frequency)
values.  The skimmed sketch removes that domination at estimation time:

1. estimate every domain value's frequency from the sketch itself
   (``f_hat(v)`` = median of group means of ``X_i * xi_i(v)``),
2. *skim* the dense values — those whose estimate clears a threshold tied
   to the sketch's own noise floor ``sqrt(F2 / s1)`` — into an explicitly
   stored dense frequency vector,
3. subtract the skimmed mass from the atomic sketches, leaving residual
   sketches of the low-frequency remainder, and
4. assemble the join size from the four sub-joins
   ``J = J_dd + J_ds + J_sd + J_ss`` — dense x dense computed exactly,
   the cross terms projected through the residual sketches, and
   residual x residual estimated sketch-to-sketch.

As the paper stresses (sections 2 and 5.2.2.1), the skimmed dense
frequencies occupy *extra* space up to O(n) on top of the atomic-sketch
budget; :class:`SkimmedJoinEstimate` reports that hidden space so the
experiment harness can account for it.
"""

from __future__ import annotations

from typing import Any

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .basic import AGMSSketch, estimate_self_join_size, median, median_of_means

#: Below this many atomic sketches per median group, per-value frequency
#: estimates are too noisy to identify dense values — skimming a hallucinated
#: heavy hitter is far worse than not skimming — so the estimator falls back
#: to the basic sketch.  (Ganguly et al.'s guarantees likewise assume sketch
#: space above a sanity bound.)
MIN_MEANS_FOR_SKIMMING = 16


@dataclass(frozen=True)
class SkimmedJoinEstimate:
    """A skimmed-sketch join estimate plus its decomposition and space use."""

    estimate: float
    dense_dense: float
    dense_residual: float
    residual_dense: float
    residual_residual: float
    dense_values_a: int
    dense_values_b: int

    @property
    def extra_dense_space(self) -> int:
        """Hidden storage beyond the atomic sketches (section 5.2.2.1)."""
        return self.dense_values_a + self.dense_values_b


def estimate_frequencies(sketch: AGMSSketch, sign_matrix: NDArray[Any]) -> NDArray[Any]:
    """Per-value frequency estimates ``f_hat(v)`` from an AGMS sketch.

    ``E[X_i * xi_i(v)] = f(v)``; the median of group means over the sketch
    grid makes the estimate robust.  ``sign_matrix`` is the family's dense
    ``(S, n)`` ±1 matrix, the int8 view :meth:`SignFamily.sign_matrix`
    returns or any numeric copy of it; ±1 products and integer sums are
    exact, so every dtype gives the same estimates.
    """
    if sketch.ndim != 1:
        raise ValueError("frequency skimming is defined for single-attribute sketches")
    per_value = sign_matrix.T * sketch.atoms  # (n, S)
    groups = per_value.reshape(-1, sketch.num_medians, sketch.num_means)
    return median(groups.mean(axis=2), axis=1)


def _project(sign_matrix: NDArray[Any], dense: NDArray[Any]) -> NDArray[Any]:
    """``sign_matrix @ dense``, summed over the skimmed (nonzero) values only."""
    held = np.flatnonzero(dense)
    return sign_matrix[:, held] @ dense[held]


def skim_threshold(sketch: AGMSSketch, factor: float = 2.0) -> float:
    """Noise-floor threshold above which a frequency estimate is 'dense'.

    A single atomic estimate of ``f(v)`` has standard deviation about
    ``sqrt(F2 / 1)``; averaging ``s1`` atomic sketches divides the variance
    by ``s1``, so values safely above ``factor * sqrt(F2_hat / s1)`` are
    real heavy hitters rather than estimation noise.
    """
    f2_hat = max(estimate_self_join_size(sketch), 0.0)
    return factor * float(np.sqrt(f2_hat / sketch.num_means))


def skim_dense_frequencies(
    sketch: AGMSSketch,
    sign_matrix: NDArray[Any],
    threshold: float | None = None,
    threshold_factor: float = 2.0,
) -> tuple[NDArray[Any], NDArray[Any]]:
    """Extract the dense frequency vector and the residual atomic sketches.

    Returns ``(dense, residual_atoms)`` where ``dense`` is a length-``n``
    vector holding the skimmed frequency estimates (zero for non-dense
    values) and ``residual_atoms`` are the sketch counters after the dense
    mass was subtracted out.
    """
    if threshold is None:
        threshold = skim_threshold(sketch, threshold_factor)
    f_hat = estimate_frequencies(sketch, sign_matrix)
    dense = np.where(f_hat >= threshold, np.maximum(np.rint(f_hat), 0.0), 0.0)
    residual_atoms = sketch.atoms - _project(sign_matrix, dense)
    return dense, residual_atoms


def estimate_join_size_skimmed(
    a: AGMSSketch,
    b: AGMSSketch,
    threshold_factor: float = 2.0,
) -> SkimmedJoinEstimate:
    """Skimmed-sketch estimate of a single equi-join ``R1.A = R2.B``.

    Both sketches must share the join attribute's sign family (as for the
    basic sketch).  Returns the full decomposition; use ``.estimate`` for
    the headline number.
    """
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError("the skimmed sketch handles single-attribute joins")
    if not a.compatible_with(b, 0, 0):
        raise ValueError("sketches do not share a sign family; joins are undefined")
    signs = a.families[0].sign_matrix()

    if a.num_means < MIN_MEANS_FOR_SKIMMING:
        # Too little averaging to trust per-value frequency estimates: the
        # skim would extract noise.  Degrade gracefully to the basic AGMS
        # estimate (an empty skim).
        basic = median_of_means(a.atoms * b.atoms, a.num_means, a.num_medians)
        return SkimmedJoinEstimate(
            estimate=basic,
            dense_dense=0.0,
            dense_residual=0.0,
            residual_dense=0.0,
            residual_residual=basic,
            dense_values_a=0,
            dense_values_b=0,
        )

    dense_a, residual_a = skim_dense_frequencies(a, signs, threshold_factor=threshold_factor)
    dense_b, residual_b = skim_dense_frequencies(b, signs, threshold_factor=threshold_factor)

    s1, s2 = a.num_means, a.num_medians

    # Dense x dense: both sides explicit, computed exactly.
    j_dd = float(dense_a @ dense_b)

    # Dense x residual: project the dense vector through the sign families
    # to pair it with the residual sketch (an unbiased inner product).
    proj_a = _project(signs, dense_a)  # (S,) sketch of the dense-a vector
    proj_b = _project(signs, dense_b)
    j_ds = median_of_means(proj_a * residual_b, s1, s2)
    j_sd = median_of_means(residual_a * proj_b, s1, s2)

    # Residual x residual: the plain AGMS estimate on the skimmed remainder.
    j_ss = median_of_means(residual_a * residual_b, s1, s2)

    return SkimmedJoinEstimate(
        estimate=j_dd + j_ds + j_sd + j_ss,
        dense_dense=j_dd,
        dense_residual=j_ds,
        residual_dense=j_sd,
        residual_residual=j_ss,
        dense_values_a=int(np.count_nonzero(dense_a)),
        dense_values_b=int(np.count_nonzero(dense_b)),
    )


def estimate_multijoin_size_skimmed(
    sketches: list[AGMSSketch],
    threshold_factor: float = 2.0,
) -> float:
    """Skimmed estimation for the paper's chain queries.

    Ganguly et al. define skimming for single joins; the natural chain
    generalization (used here for the paper's 2- and 3-join experiments)
    skims the two *end* relations — the single-attribute sketches, where
    per-value frequencies can be read off the sketch — and expands the join
    into the four dense/residual end combinations.  Dense ends enter each
    term as noise-free projections of their skimmed frequency vectors, so
    the heavy hitters of the end relations no longer contribute sketch
    variance; inner relations keep their plain sketches.  With no dense
    values this reduces exactly to the basic multi-join estimate.
    """
    if len(sketches) < 2:
        raise ValueError("a join needs at least two sketches")
    if len(sketches) == 2 and sketches[0].ndim == 1 and sketches[1].ndim == 1:
        return estimate_join_size_skimmed(
            sketches[0], sketches[1], threshold_factor=threshold_factor
        ).estimate

    first, last = sketches[0], sketches[-1]
    if first.ndim != 1 or last.ndim != 1:
        raise ValueError("chain skimming expects single-attribute end relations")

    inner = np.ones_like(first.atoms)
    for sk in sketches[1:-1]:
        inner = inner * sk.atoms

    if first.num_means < MIN_MEANS_FOR_SKIMMING:
        products = first.atoms * inner * last.atoms
        return median_of_means(products, first.num_means, first.num_medians)

    end_parts = []
    for end in (first, last):
        signs = end.families[0].sign_matrix()
        dense, residual = skim_dense_frequencies(
            end, signs, threshold_factor=threshold_factor
        )
        end_parts.append((_project(signs, dense), residual))

    s1, s2 = first.num_means, first.num_medians
    total = 0.0
    for left in end_parts[0]:
        for right in end_parts[1]:
            total += median_of_means(left * inner * right, s1, s2)
    return total
