"""Stream sampling primitives: Bernoulli and reservoir samples.

Sampling is the oldest synopsis family the paper surveys (its references
[1, 14, 15, 22, 28]; [15] is Hou, Özsoyoğlu and Taneja's PODS 1988
"Statistical Estimators for Relational Algebra Expressions" — the titled
paper of this reproduction).  These classes provide the stream-side
machinery; :mod:`repro.sampling.estimators` builds join-size estimators on
top of them.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress
from typing import Any, Hashable, Iterable, Sequence

import numpy as np
from numpy.typing import NDArray


class BernoulliSample:
    """Keep each arriving tuple independently with probability ``p``.

    The sample is stored as a value -> multiplicity counter, so its memory
    is bounded by the number of *distinct* sampled values.  Inclusion
    probabilities are exact and independent, which is what makes the
    cross-product join estimator unbiased.
    """

    def __init__(self, probability: float, seed: int | None = None) -> None:
        if not 0.0 < probability <= 1.0:
            raise ValueError(f"sampling probability must be in (0, 1], got {probability}")
        self.probability = probability
        self._rng = np.random.default_rng(seed)
        self.counts: Counter[Any] = Counter()
        self.sampled_size = 0
        self.stream_size = 0

    def insert(self, value: Hashable) -> None:
        """Offer one arriving tuple to the sample."""
        self.stream_size += 1
        if self._rng.random() < self.probability:
            self.counts[value] += 1
            self.sampled_size += 1

    def insert_many(self, values: Iterable[Hashable]) -> None:
        for value in values:
            self.insert(value)

    def insert_batch(self, values: Sequence[Hashable] | NDArray[Any]) -> NDArray[Any]:
        """Offer a batch of tuples; returns the boolean acceptance mask.

        ``values`` is a sequence of hashables or an array: a 1-d array's
        entries, or a 2-d array's rows as tuples.  Only the kept entries of
        an array become Python keys, so a small ``p`` pays for the rows it
        keeps, not all of them.

        Draws all coins in one vectorized call.  Because numpy generators
        produce the same double stream whether drawn one at a time or in
        blocks, the kept set is *bit-identical* to offering each value via
        :meth:`insert` in order — batch and sequential ingestion agree
        exactly, not just in distribution.
        """
        if not isinstance(values, np.ndarray):
            values = list(values)
        if not len(values):
            return np.zeros(0, dtype=bool)
        mask = self._rng.random(len(values)) < self.probability
        self.stream_size += len(values)
        kept: list[Hashable]
        if isinstance(values, np.ndarray):
            rows = values[mask].tolist()
            kept = [tuple(row) for row in rows] if values.ndim > 1 else rows
        else:
            kept = list(compress(values, mask))
        self.counts.update(kept)
        self.sampled_size += len(kept)
        return mask

    def state_dict(self) -> dict[str, Any]:
        """Full mutable state, including the generator's bit state.

        Capturing ``bit_generator.state`` is what makes recovery exact:
        a restored sample flips the *same* coins for post-restore
        arrivals as the uncrashed original would have, so checkpointed
        and continuous runs stay bit-identical.
        """
        return {
            "probability": self.probability,
            "rng_state": self._rng.bit_generator.state,
            "counts": dict(self.counts),
            "sampled_size": self.sampled_size,
            "stream_size": self.stream_size,
        }

    def load_state(self, state: dict[str, Any]) -> None:
        """Restore state captured by :meth:`state_dict`, in place.

        Mutates ``self.counts`` rather than replacing it, because the
        engine's estimate closures share the Counter object.
        """
        self.probability = float(state["probability"])
        self._rng.bit_generator.state = state["rng_state"]
        self.counts.clear()
        self.counts.update(state["counts"])
        self.sampled_size = int(state["sampled_size"])
        self.stream_size = int(state["stream_size"])

    def delete(self, value: Hashable) -> None:
        """Deletion is not supported by Bernoulli samples.

        Whether the deleted tuple is *in* the sample depends on a coin flip
        made at its arrival that the sample did not record; section 2 of the
        paper notes exactly this kind of difficulty for sampling under
        dynamic streams.
        """
        raise NotImplementedError(
            "Bernoulli samples cannot process deletions; this limitation is "
            "part of why the paper moves away from sampling for streams"
        )


class ReservoirSample:
    """Classic Algorithm-R reservoir of fixed capacity ``k``.

    Maintains a uniform without-replacement sample of everything seen so
    far, regardless of stream length.
    """

    def __init__(self, capacity: int, seed: int | None = None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._rng = np.random.default_rng(seed)
        self.items: list[Hashable] = []
        self.stream_size = 0

    def insert(self, value: Hashable) -> None:
        """Offer one arriving tuple to the reservoir."""
        self.stream_size += 1
        if len(self.items) < self.capacity:
            self.items.append(value)
            return
        j = int(self._rng.integers(0, self.stream_size))
        if j < self.capacity:
            self.items[j] = value

    def insert_many(self, values: Iterable[Hashable]) -> None:
        for value in values:
            self.insert(value)

    @property
    def sampled_size(self) -> int:
        return len(self.items)

    def value_counts(self) -> Counter[Any]:
        """Multiplicities of the sampled values."""
        return Counter(self.items)
