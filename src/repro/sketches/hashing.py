"""Four-wise independent hashing for AGMS sketches.

Atomic sketches need ±1 random variables ``xi(v)`` that are 4-wise
independent across domain values (Alon et al. [2]); this module provides
the classic polynomial construction: degree-3 polynomials with random
coefficients over the Mersenne prime ``p = 2^31 - 1``, evaluated by Horner's
rule entirely in ``uint64`` (every intermediate product is below ``2^62``),
with the sign taken from the low bit.

A :class:`SignFamily` bundles ``S`` independent such functions over one
attribute domain and evaluates them vectorized: ``signs(indices)`` returns
the ``(S, B)`` matrix of ±1 values all atomic sketches need for a batch of
``B`` arrivals.
"""

from __future__ import annotations

from typing import Any

import numpy as np
from numpy.typing import NDArray

#: Mersenne prime 2^31 - 1; coefficients and values live in [0, p).
MERSENNE_P = np.uint64((1 << 31) - 1)

_POLY_DEGREE = 4  # 4 coefficients -> 4-wise independence


class SignFamily:
    """``S`` independent 4-wise ±1 hash functions over a domain of size ``n``.

    Two sketches are joinable only if built from the *same* family (same
    seed, size and domain), exactly as the paper's sketches share their
    random vectors across the two streams of a join.
    """

    def __init__(self, domain_size: int, num_functions: int, seed: int) -> None:
        if domain_size < 1:
            raise ValueError(f"domain size must be >= 1, got {domain_size}")
        if domain_size >= int(MERSENNE_P):
            raise ValueError("domain size must be below 2^31 - 1")
        if num_functions < 1:
            raise ValueError(f"need at least one hash function, got {num_functions}")
        self.domain_size = domain_size
        self.num_functions = num_functions
        self.seed = seed
        rng = np.random.default_rng(seed)
        self._coeffs = rng.integers(
            0, int(MERSENNE_P), size=(num_functions, _POLY_DEGREE), dtype=np.uint64
        )
        # The leading coefficient must be nonzero for full degree.
        zero_lead = self._coeffs[:, 0] == 0
        self._coeffs[zero_lead, 0] = 1

    def compatible_with(self, other: "SignFamily") -> bool:
        """Whether two families generate identical sign sequences."""
        return (
            self.domain_size == other.domain_size
            and self.num_functions == other.num_functions
            and self.seed == other.seed
        )

    def hash_values(self, indices: NDArray[Any]) -> NDArray[Any]:
        """Evaluate all ``S`` polynomials at the given domain indices.

        Returns a ``(S, B)`` uint64 array of values in ``[0, p)``.
        """
        idx = np.asarray(indices)
        if idx.size and (idx.min() < 0 or idx.max() >= self.domain_size):
            raise ValueError("index outside the hashed domain")
        x = idx.astype(np.uint64)[None, :]
        acc = np.broadcast_to(self._coeffs[:, 0][:, None], (self.num_functions, x.shape[1])).copy()
        for degree in range(1, _POLY_DEGREE):
            acc = (acc * x + self._coeffs[:, degree][:, None]) % MERSENNE_P
        return acc

    def signs(self, indices: NDArray[Any]) -> NDArray[Any]:
        """±1 sign matrix ``(S, B)`` for a batch of domain indices."""
        return (self.hash_values(indices) & np.uint64(1)).astype(np.int8) * 2 - 1

    def sign_matrix(self, chunk: int = 1 << 14) -> NDArray[Any]:
        """Dense ``(S, n)`` sign matrix over the whole domain, chunked.

        Used by batch construction from frequency vectors and by the
        skimmed sketch's per-value frequency estimation.
        """
        out = np.empty((self.num_functions, self.domain_size), dtype=np.int8)
        for start in range(0, self.domain_size, chunk):
            stop = min(start + chunk, self.domain_size)
            out[:, start:stop] = self.signs(np.arange(start, stop))
        return out
