"""Sampling synopses and join estimators (the 1988 statistical-estimator
lineage the paper surveys as references [1, 14, 15, 22, 28]).

Every name is imported from its submodule on first use.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .estimators import (
        SampleJoinEstimate,
        estimate_chain_join_size_samples,
        estimate_join_size_bernoulli,
        estimate_join_size_reservoir,
    )
    from .reservoir import BernoulliSample, ReservoirSample

_EXPORTS = {
    ".estimators": (
        "SampleJoinEstimate",
        "estimate_chain_join_size_samples",
        "estimate_join_size_bernoulli",
        "estimate_join_size_reservoir",
    ),
    ".reservoir": ("BernoulliSample", "ReservoirSample"),
}
__getattr__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "SampleJoinEstimate",
    "estimate_chain_join_size_samples",
    "estimate_join_size_bernoulli",
    "estimate_join_size_reservoir",
    "BernoulliSample",
    "ReservoirSample",
]
