"""repro — cosine-series join size estimation over data streams.

A full reproduction of Jiang, Luo, Hou, Yan, Zhu & Wang, "Join Size
Estimation Over Data Streams Using Cosine Series" (IJIT 13(1), 2007),
including the paper's baselines (basic AGMS and skimmed sketches), the
sampling-estimator lineage of Hou et al. (PODS 1988), an equi-width
histogram baseline, synthetic and real-life-like workload generators, and
the complete section 5 experiment harness.

Quickstart::

    import numpy as np
    from repro import CosineSynopsis, Domain, estimate_join_size

    domain = Domain.of_size(1000)
    a = CosineSynopsis(domain, budget=64)
    b = CosineSynopsis(domain, budget=64)
    a.insert_batch(np.random.default_rng(0).integers(0, 1000, size=(5000, 1)))
    b.insert_batch(np.random.default_rng(1).integers(0, 1000, size=(5000, 1)))
    print(estimate_join_size(a, b))
"""

from .core import (
    CosineSynopsis,
    DecayedCosineSynopsis,
    Domain,
    SlidingWindowSynopsis,
    JoinPredicate,
    estimate_band_join_size,
    estimate_chain_join_size,
    estimate_decayed_join_size,
    estimate_inequality_join_size,
    estimate_join_size,
    estimate_selected_join_size,
    estimate_multijoin_size,
    estimate_point_count,
    estimate_range_count,
    estimate_self_join_size,
    estimate_theta_join_size,
    synopses_for_budget,
    unify_domains,
)
from .obs import Telemetry
from .streams import (
    ContinuousQueryEngine,
    JoinQuery,
    StreamEngine,
    StreamRelation,
    exact_join_size,
    exact_multijoin_size,
    relative_error,
)

__version__ = "1.19.0"

__all__ = [
    "CosineSynopsis",
    "DecayedCosineSynopsis",
    "Domain",
    "SlidingWindowSynopsis",
    "JoinPredicate",
    "estimate_band_join_size",
    "estimate_decayed_join_size",
    "estimate_inequality_join_size",
    "estimate_selected_join_size",
    "estimate_theta_join_size",
    "estimate_chain_join_size",
    "estimate_join_size",
    "estimate_multijoin_size",
    "estimate_point_count",
    "estimate_range_count",
    "estimate_self_join_size",
    "synopses_for_budget",
    "unify_domains",
    "ContinuousQueryEngine",
    "JoinQuery",
    "StreamEngine",
    "StreamRelation",
    "Telemetry",
    "exact_join_size",
    "exact_multijoin_size",
    "relative_error",
    "__version__",
]
