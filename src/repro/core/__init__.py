"""Core cosine-series synopsis machinery — the paper's primary contribution.

Public surface:

- :class:`~repro.core.normalization.Domain` and
  :func:`~repro.core.normalization.unify_domains` — attribute domains and the
  section 4.1 join-domain unification.
- :class:`~repro.core.synopsis.CosineSynopsis` — the incremental DCT stream
  synopsis (Eqs. 3.3–3.5).
- :func:`~repro.core.join.estimate_join_size`,
  :func:`~repro.core.join.estimate_multijoin_size`,
  :func:`~repro.core.join.estimate_chain_join_size`,
  :func:`~repro.core.join.estimate_self_join_size` — section 4.2 estimators.
- :mod:`~repro.core.error` — the section 4.3 analytic bounds.
- :mod:`~repro.core.range_query` — point/range estimation (section 6 remark).

Every name is imported from its submodule on first use.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .basis import (
        GridKind,
        basis_matrix,
        coefficients_from_counts,
        coefficients_via_scipy_dct,
        endpoint_grid,
        make_grid,
        midpoint_grid,
        phi,
        reconstruct_frequencies,
    )
    from .error import (
        absolute_error_bound,
        coefficients_for_relative_error,
        relative_error_bound,
        sketch_space_bounds,
        worst_case_coefficients,
    )
    from .join import (
        JoinPredicate,
        choose_budget,
        estimate_chain_join_size,
        estimate_join_size,
        estimate_join_size_by_group,
        estimate_join_size_with_bound,
        estimate_multijoin_size,
        estimate_self_join_size,
    )
    from .normalization import Domain, embed_counts, unify_domains
    from .range_query import (
        estimate_box_count,
        estimate_cdf,
        estimate_point_count,
        estimate_quantile,
        estimate_range_count,
        estimate_range_selectivity,
    )
    from .decay import DecayedCosineSynopsis, estimate_decayed_join_size
    from .window import SlidingWindowSynopsis
    from .synopsis import CosineSynopsis, synopses_for_budget
    from .theta_join import (
        estimate_band_join_size,
        estimate_inequality_join_size,
        estimate_selected_join_size,
        estimate_theta_join_size,
    )
    from .triangular import (
        full_indices,
        order_for_budget,
        triangular_count,
        triangular_indices,
    )

_EXPORTS = {
    ".basis": (
        "GridKind",
        "basis_matrix",
        "coefficients_from_counts",
        "coefficients_via_scipy_dct",
        "endpoint_grid",
        "make_grid",
        "midpoint_grid",
        "phi",
        "reconstruct_frequencies",
    ),
    ".error": (
        "absolute_error_bound",
        "coefficients_for_relative_error",
        "relative_error_bound",
        "sketch_space_bounds",
        "worst_case_coefficients",
    ),
    ".join": (
        "JoinPredicate",
        "choose_budget",
        "estimate_chain_join_size",
        "estimate_join_size",
        "estimate_join_size_by_group",
        "estimate_join_size_with_bound",
        "estimate_multijoin_size",
        "estimate_self_join_size",
    ),
    ".normalization": ("Domain", "embed_counts", "unify_domains"),
    ".range_query": (
        "estimate_box_count",
        "estimate_cdf",
        "estimate_point_count",
        "estimate_quantile",
        "estimate_range_count",
        "estimate_range_selectivity",
    ),
    ".decay": ("DecayedCosineSynopsis", "estimate_decayed_join_size"),
    ".window": ("SlidingWindowSynopsis",),
    ".synopsis": ("CosineSynopsis", "synopses_for_budget"),
    ".theta_join": (
        "estimate_band_join_size",
        "estimate_inequality_join_size",
        "estimate_selected_join_size",
        "estimate_theta_join_size",
    ),
    ".triangular": ("full_indices", "order_for_budget", "triangular_count", "triangular_indices"),
}
__getattr__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "GridKind",
    "basis_matrix",
    "coefficients_from_counts",
    "coefficients_via_scipy_dct",
    "endpoint_grid",
    "make_grid",
    "midpoint_grid",
    "phi",
    "reconstruct_frequencies",
    "absolute_error_bound",
    "coefficients_for_relative_error",
    "relative_error_bound",
    "sketch_space_bounds",
    "worst_case_coefficients",
    "JoinPredicate",
    "estimate_chain_join_size",
    "estimate_join_size",
    "estimate_join_size_by_group",
    "estimate_join_size_with_bound",
    "choose_budget",
    "SlidingWindowSynopsis",
    "estimate_multijoin_size",
    "estimate_self_join_size",
    "Domain",
    "embed_counts",
    "unify_domains",
    "estimate_box_count",
    "estimate_cdf",
    "estimate_point_count",
    "estimate_quantile",
    "estimate_range_count",
    "estimate_range_selectivity",
    "CosineSynopsis",
    "synopses_for_budget",
    "estimate_band_join_size",
    "estimate_inequality_join_size",
    "estimate_selected_join_size",
    "estimate_theta_join_size",
    "DecayedCosineSynopsis",
    "estimate_decayed_join_size",
    "full_indices",
    "order_for_budget",
    "triangular_count",
    "triangular_indices",
]
