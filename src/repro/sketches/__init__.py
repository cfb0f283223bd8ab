"""Sketch baselines: the basic AGMS sketch [2, 3] and the skimmed sketch [32].

These are the comparison methods of the paper's section 5 experiments.
Joinable sketches must share the joined attribute's :class:`SignFamily`;
space is accounted in atomic sketches, directly comparable to cosine
coefficients.

Every name is imported from its submodule on first use.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .basic import (
        AGMSSketch,
        estimate_join_size,
        estimate_join_size_with_spread,
        estimate_multijoin_size,
        estimate_self_join_size,
        make_sketch_families,
        median_of_means,
        split_budget,
    )
    from .hashing import SignFamily
    from .partitioned import PartitionedSketch, equi_mass_partition
    from .partitioned import estimate_join_size as estimate_join_size_partitioned
    from .skimmed import (
        SkimmedJoinEstimate,
        estimate_frequencies,
        estimate_join_size_skimmed,
        estimate_multijoin_size_skimmed,
        skim_dense_frequencies,
        skim_threshold,
    )

_EXPORTS = {
    ".basic": (
        "AGMSSketch",
        "estimate_join_size",
        "estimate_join_size_with_spread",
        "estimate_multijoin_size",
        "estimate_self_join_size",
        "make_sketch_families",
        "median_of_means",
        "split_budget",
    ),
    ".hashing": ("SignFamily",),
    ".partitioned": ("PartitionedSketch", "equi_mass_partition"),
    ".partitioned:estimate_join_size": ("estimate_join_size_partitioned",),
    ".skimmed": (
        "SkimmedJoinEstimate",
        "estimate_frequencies",
        "estimate_join_size_skimmed",
        "estimate_multijoin_size_skimmed",
        "skim_dense_frequencies",
        "skim_threshold",
    ),
}
__getattr__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "AGMSSketch",
    "estimate_join_size",
    "estimate_join_size_with_spread",
    "estimate_multijoin_size",
    "estimate_self_join_size",
    "make_sketch_families",
    "median_of_means",
    "split_budget",
    "SignFamily",
    "PartitionedSketch",
    "equi_mass_partition",
    "estimate_join_size_partitioned",
    "SkimmedJoinEstimate",
    "estimate_frequencies",
    "estimate_join_size_skimmed",
    "estimate_multijoin_size_skimmed",
    "skim_dense_frequencies",
    "skim_threshold",
]
