"""Uniform method adapters for the experiment harness.

Each adapter knows how to summarize the relations of a chain query from
their count tensors and produce a join-size estimate at any space budget
up to the budget it was prepared with.  Preparing once at the maximum
budget and answering every smaller budget from the same synopsis (exact
truncation for the cosine series, atomic-prefix slicing for sketches) is
what makes the paper's budget sweeps cheap to reproduce.

Space accounting follows section 5.1: "the number of coefficients or
atomic sketches" per relation.  The skimmed sketch's extra dense-value
storage is reported separately, as the paper does ("readers are advised to
note the hidden space consumed by the skimmed sketch").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Protocol, Sequence

import numpy as np
from numpy.typing import NDArray

from ..core.join import estimate_chain_join_size
from ..core.normalization import Domain
from ..core.synopsis import CosineSynopsis
from ..histograms.equiwidth import EquiWidthHistogram
from ..histograms.equiwidth import estimate_join_size as histogram_join
from ..sampling.estimators import estimate_chain_join_size_samples
from ..sampling.reservoir import BernoulliSample
from ..sketches.basic import AGMSSketch, slice_sketch, split_budget
from ..sketches.basic import estimate_multijoin_size as sketch_chain
from ..sketches.hashing import SignFamily
from ..sketches.skimmed import estimate_multijoin_size_skimmed

ChainData = Sequence[NDArray[Any]]
ChainDomains = Sequence[Sequence[Domain]]


class ChainEstimator(Protocol):
    """A prepared method instance, ready to answer budget sweeps."""

    def estimate(self, budget: int) -> float: ...  # pragma: no cover - protocol


class Method(Protocol):
    """A named estimation method of the section 5 comparison."""

    name: str

    def prepare(
        self,
        relations: ChainData,
        domains: ChainDomains,
        max_budget: int,
        rng: np.random.Generator,
    ) -> ChainEstimator: ...  # pragma: no cover - protocol


def _check_chain(relations: ChainData, domains: ChainDomains) -> None:
    if len(relations) < 2:
        raise ValueError("a chain query needs at least two relations")
    if len(relations) != len(domains):
        raise ValueError("one domain tuple per relation is required")
    for tensor, doms in zip(relations, domains):
        if np.asarray(tensor).ndim != len(doms):
            raise ValueError("relation arity does not match its domains")
    for i in range(len(relations) - 1):
        left = domains[i][-1]
        right = domains[i + 1][0]
        if left.size != right.size:
            raise ValueError(
                f"chain link {i}: unified domain sizes differ ({left.size} vs {right.size})"
            )


# --------------------------------------------------------------------- #
# cosine series (the paper's method)
# --------------------------------------------------------------------- #


@dataclass
class CosineMethod:
    """The paper's cosine-series estimator (sections 3-4)."""

    name: str = "cosine"
    grid: str = "midpoint"
    truncation: str = "triangular"

    def prepare(
        self,
        relations: ChainData,
        domains: ChainDomains,
        max_budget: int,
        rng: np.random.Generator,
    ) -> "PreparedCosine":
        _check_chain(relations, domains)
        synopses = [
            CosineSynopsis.from_counts(
                list(doms),
                np.asarray(tensor, dtype=float),
                budget=max_budget,
                truncation=self.truncation,
                grid=self.grid,  # type: ignore[arg-type]
            )
            for tensor, doms in zip(relations, domains)
        ]
        return PreparedCosine(synopses)


@dataclass
class PreparedCosine:
    synopses: list[CosineSynopsis]
    _cache: dict[int, list[CosineSynopsis]] = field(default_factory=dict)

    def estimate(self, budget: int) -> float:
        if budget not in self._cache:
            self._cache[budget] = [
                s.truncated(budget=min(budget, s.num_coefficients))
                if s.num_coefficients > budget
                else s
                for s in self.synopses
            ]
        return estimate_chain_join_size(self._cache[budget])

    def space(self, budget: int) -> int:
        """Actual coefficients stored per relation at this nominal budget."""
        return max(s.num_coefficients for s in self._cache.get(budget, self.synopses))


# --------------------------------------------------------------------- #
# sketches
# --------------------------------------------------------------------- #


def _build_chain_sketches(
    relations: ChainData,
    domains: ChainDomains,
    budget: int,
    rng: np.random.Generator,
    num_medians: int | None,
) -> list[AGMSSketch]:
    """Per-relation AGMS sketches with per-join-attribute shared families."""
    _check_chain(relations, domains)
    s1, s2 = split_budget(budget, num_medians)
    size = s1 * s2
    num_joins = len(relations) - 1
    seeds = [int(rng.integers(1 << 31)) for _ in range(num_joins)]
    families = [
        SignFamily(domains[i][-1].size, size, seed=seeds[i]) for i in range(num_joins)
    ]
    sketches = []
    for i, (tensor, doms) in enumerate(zip(relations, domains)):
        if i == 0:
            fams = [families[0]]
        elif i == len(relations) - 1:
            fams = [families[num_joins - 1]]
        else:
            fams = [families[i - 1], families[i]]
        sketches.append(
            AGMSSketch.from_counts(fams, np.asarray(tensor, dtype=float), s1, s2)
        )
    return sketches


@dataclass
class BasicSketchMethod:
    """Alon et al.'s basic AGMS sketch [2, 3]."""

    name: str = "basic_sketch"
    num_medians: int | None = None

    def prepare(
        self,
        relations: ChainData,
        domains: ChainDomains,
        max_budget: int,
        rng: np.random.Generator,
    ) -> "PreparedSketch":
        sketches = _build_chain_sketches(
            relations, domains, max_budget, rng, self.num_medians
        )
        return PreparedSketch(sketches, self.num_medians, skimmed=False)


@dataclass
class SkimmedSketchMethod:
    """Ganguly et al.'s skimmed sketch [32]."""

    name: str = "skimmed_sketch"
    num_medians: int | None = None
    threshold_factor: float = 2.0

    def prepare(
        self,
        relations: ChainData,
        domains: ChainDomains,
        max_budget: int,
        rng: np.random.Generator,
    ) -> "PreparedSketch":
        sketches = _build_chain_sketches(
            relations, domains, max_budget, rng, self.num_medians
        )
        return PreparedSketch(
            sketches, self.num_medians, skimmed=True, threshold_factor=self.threshold_factor
        )


@dataclass
class PreparedSketch:
    sketches: list[AGMSSketch]
    num_medians: int | None
    skimmed: bool
    threshold_factor: float = 2.0

    def estimate(self, budget: int) -> float:
        s1, s2 = split_budget(budget, self.num_medians)
        sliced = [slice_sketch(sk, s1, s2) for sk in self.sketches]
        if self.skimmed:
            return estimate_multijoin_size_skimmed(
                sliced, threshold_factor=self.threshold_factor
            )
        return sketch_chain(sliced)


# --------------------------------------------------------------------- #
# sampling (the 1988 estimator lineage)
# --------------------------------------------------------------------- #


@dataclass
class SamplingMethod:
    """Bernoulli-sampled cross-product estimator (Hou et al. lineage)."""

    name: str = "sample"

    def prepare(
        self,
        relations: ChainData,
        domains: ChainDomains,
        max_budget: int,
        rng: np.random.Generator,
    ) -> "PreparedSample":
        _check_chain(relations, domains)
        return PreparedSample(
            [np.asarray(t) for t in relations], int(rng.integers(1 << 31))
        )


@dataclass
class PreparedSample:
    relations: list[NDArray[Any]]
    seed: int
    _cache: dict[int, float] = field(default_factory=dict)

    def estimate(self, budget: int) -> float:
        # Budget = expected sample size per relation.  Sampling cannot be
        # "truncated" like coefficient synopses, so each budget draws its
        # own (seeded) thinning of the counts: binomial per cell, which is
        # distributionally identical to per-tuple Bernoulli sampling.
        if budget in self._cache:
            return self._cache[budget]
        rng = np.random.default_rng(self.seed + budget)
        samples = [
            BernoulliSample.from_counts(
                tensor, min(1.0, budget / max(int(tensor.sum()), 1)), rng
            )
            for tensor in self.relations
        ]
        result = estimate_chain_join_size_samples(samples)
        self._cache[budget] = result
        return result


# --------------------------------------------------------------------- #
# histogram (single-join only)
# --------------------------------------------------------------------- #


@dataclass
class HistogramMethod:
    """Equi-width histogram baseline — single-join queries only."""

    name: str = "histogram"

    def prepare(
        self,
        relations: ChainData,
        domains: ChainDomains,
        max_budget: int,
        rng: np.random.Generator,
    ) -> "PreparedHistogram":
        _check_chain(relations, domains)
        if len(relations) != 2:
            raise ValueError("the histogram baseline supports single joins only")
        return PreparedHistogram(
            [np.asarray(t, dtype=float) for t in relations],
            [doms[0] for doms in domains],
        )


@dataclass
class PreparedHistogram:
    counts: list[NDArray[Any]]
    domains: list[Domain]

    def estimate(self, budget: int) -> float:
        hists = [
            EquiWidthHistogram.from_counts(dom, c, budget)
            for c, dom in zip(self.counts, self.domains)
        ]
        return histogram_join(hists[0], hists[1])


# --------------------------------------------------------------------- #
# wavelet (single-join only)
# --------------------------------------------------------------------- #


@dataclass
class WaveletMethod:
    """Haar top-coefficient synopsis baseline — single-join queries only.

    The paper's section 2 wavelet family: keep the ``budget`` largest Haar
    coefficients of each stream's frequency vector.  Note the accounting
    asymmetry the paper points out: unlike cosine coefficients, kept Haar
    coefficients also need their indexes stored.
    """

    name: str = "wavelet"

    def prepare(
        self,
        relations: ChainData,
        domains: ChainDomains,
        max_budget: int,
        rng: np.random.Generator,
    ) -> "PreparedWavelet":
        _check_chain(relations, domains)
        if len(relations) != 2:
            raise ValueError("the wavelet baseline supports single joins only")
        return PreparedWavelet(
            [np.asarray(t, dtype=float) for t in relations],
            [doms[0] for doms in domains],
        )


@dataclass
class PreparedWavelet:
    counts: list[NDArray[Any]]
    domains: list[Domain]

    def estimate(self, budget: int) -> float:
        from ..wavelets.haar import HaarSynopsis
        from ..wavelets.haar import estimate_join_size as haar_join

        synopses = [
            HaarSynopsis.from_counts(dom, c, budget)
            for c, dom in zip(self.counts, self.domains)
        ]
        return haar_join(synopses[0], synopses[1])


def default_methods() -> list[Method]:
    """The paper's section 5 cast: cosine vs the two sketches."""
    return [CosineMethod(), SkimmedSketchMethod(), BasicSketchMethod()]


def extended_methods() -> list[Method]:
    """The paper's cast plus the surveyed sampling baseline."""
    return [CosineMethod(), SkimmedSketchMethod(), BasicSketchMethod(), SamplingMethod()]
