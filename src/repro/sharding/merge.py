"""Merge semantics for per-shard synopsis state.

Which estimation methods can be sharded, and how their per-shard states
recombine into the single-engine state, is the correctness core of
:mod:`repro.sharding`:

* **Mergeable methods** — ``cosine``, ``basic_sketch``,
  ``skimmed_sketch``, ``histogram``, ``wavelet`` (plus the cosine range
  and band query kinds).  Their synopsis state is a *linear* function of
  the ingested multiset: cosine coefficient sums (Eq. 3.3 is a sum over
  tuples), AGMS atomic sketches (sums of ±1 signs; the skimmed estimator
  reads the same atoms), equi-width bucket counts, and the Haar
  synopsis' unnormalized transform (block-sum differences in int64).
  Summing the per-shard ``state_dict()`` fields therefore reproduces the
  state a single engine would hold after ingesting every shard's tuples —
  exactly for integer-valued state (sketch atoms, histogram buckets, Haar
  details, so the Haar read's top-``budget`` threshold selects the same
  coefficients), up to float summation order for cosine coefficients,
  whose estimators are *continuous*, so the answer moves by the same
  last-ulp amount.  Shard sign families and histogram/cosine geometry
  match across shards because every shard engine is built from the same
  seed and specs.

* **Coordinator methods** — ``sample`` and ``partitioned_sketch``.
  Bernoulli sampling consumes an RNG sequence in arrival order, and the
  partitioned sketch freezes its partition boundaries from the pilot
  distribution it sees at registration time; neither state is a
  partition-independent function of the multiset, so per-shard copies
  cannot be recombined into the single-engine state.  Both live on the
  fleet's *replica*, which ingests the full stream in arrival order, and
  answers are *bit-identical* to the unsharded engine.

Every fleet builds its replica at construction, whatever it registers:
one engine holding every relation's exact count tensor, as large as a
single engine's.  It maps, checks and counts each batch before any shard
sees it (one tensor update per batch, plus the updates of coordinator
synopses), it is the fleet's exact counts and ground truth, and every
fleet checkpoint saves it.
"""

from __future__ import annotations

from typing import Any

import numpy as np

__all__ = [
    "COORDINATOR_METHODS",
    "MERGEABLE_METHODS",
    "merge_observer_states",
]

#: Methods whose per-shard synopsis states sum to the single-engine state.
MERGEABLE_METHODS = frozenset(
    {"cosine", "basic_sketch", "skimmed_sketch", "histogram", "wavelet"}
)

#: Methods kept on the coordinator replica (arrival-order or
#: registration-time dependent state).
COORDINATOR_METHODS = frozenset({"sample", "partitioned_sketch"})


def merge_observer_states(states: list[dict[str, Any]]) -> dict[str, Any]:
    """Combine per-shard ``state_dict()`` payloads of one observer.

    Array-valued fields are summed (coefficients, atoms, buckets) and
    the integer ``count`` fields add; any other field must be identical
    across shards (structural state such as partition boundaries is not
    mergeable and belongs to a coordinator method instead).
    """
    if not states:
        raise ValueError("cannot merge an empty state list")
    merged: dict[str, Any] = {}
    for key, first in states[0].items():
        if isinstance(first, np.ndarray):
            total = first.copy()
            for other in states[1:]:
                value = np.asarray(other[key])
                if value.shape != total.shape:
                    raise ValueError(
                        f"shard states disagree on {key!r} shape: "
                        f"{value.shape} vs {total.shape}"
                    )
                total = total + value
            merged[key] = total
        elif isinstance(first, (int, float)) and not isinstance(first, bool):
            merged[key] = sum(state[key] for state in states)
        else:
            for other in states[1:]:
                if other[key] != first:
                    raise ValueError(
                        f"shard states disagree on non-mergeable field {key!r}: "
                        f"{other[key]!r} vs {first!r}"
                    )
            merged[key] = first
    return merged
