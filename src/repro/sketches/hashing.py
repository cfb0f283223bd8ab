"""Four-wise independent hashing for AGMS sketches.

Atomic sketches need ±1 random variables ``xi(v)`` that are 4-wise
independent across domain values (Alon et al. [2]); this module provides
the classic polynomial construction: degree-3 polynomials with random
coefficients over the Mersenne prime ``p = 2^31 - 1``, with the sign taken
from the low bit of the value mod ``p``.  Each polynomial is one ``uint64``
sum over the powers ``x, x^2, x^3`` mod ``p`` of a value: at most
``3 (p - 1)^2 + p - 1 < 2^64``, so it cannot overflow.  One division
``q = acc // p`` then reduces it, and since ``p`` is odd, ``acc - q p`` and
``acc ^ q`` share their low bit: the sign needs no remainder pass.

A :class:`SignFamily` bundles ``S`` independent such functions over one
attribute domain and evaluates them vectorized: ``signs(indices)`` returns
the ``(S, B)`` matrix of ±1 values all atomic sketches need for a batch of
``B`` arrivals.  A family small enough keeps an ``(n, S)`` int8 table of
the signs it has computed, so each domain value is hashed at most once
however many batches, registrations and answers read it.
"""

from __future__ import annotations

from typing import Any, Iterator

import numpy as np
from numpy.typing import NDArray

#: Mersenne prime 2^31 - 1; coefficients and values live in [0, p).
MERSENNE_P = np.uint64((1 << 31) - 1)

_POLY_DEGREE = 4  # 4 coefficients -> 4-wise independence

#: Values are hashed in blocks of about this many (value, function) cells,
#: so a block's two uint64 intermediates (the sums and their quotients)
#: stay near 512 KiB together (L2-sized): 128 values at ``S = 256``, a few
#: at the paper's ``S = 10,000``.
HASH_BLOCK_CELLS = 1 << 15

#: Largest sign table, in bytes (one int8 per value and function), a family
#: keeps.  Larger families, such as section 5.4's 100,000 values x 10,000
#: functions (about 1 GB), hash on every call instead.
SIGN_TABLE_MAX_BYTES = 16 << 20


def _block_slices(
    length: int, row_cells: int, block_cells: int = HASH_BLOCK_CELLS
) -> Iterator[slice]:
    """Consecutive slices of ``range(length)``, rows of ``row_cells`` cells each.

    A slice spans about ``block_cells`` cells, by default
    :data:`HASH_BLOCK_CELLS`: 128 values' rows of ``S = 255`` signs.
    """
    width = max(1, block_cells // row_cells)
    return (slice(start, min(start + width, length)) for start in range(0, length, width))


class SignFamily:
    """``S`` independent 4-wise ±1 hash functions over a domain of size ``n``.

    Two sketches are joinable only if built from the *same* family (same
    seed, size and domain), exactly as the paper's sketches share their
    random vectors across the two streams of a join.

    While ``n * S`` is at most :data:`SIGN_TABLE_MAX_BYTES`, the family
    fills an ``(n, S)`` int8 table lazily: a value's row is hashed the first
    time any call needs it and read from the table afterwards.  The table is
    derived from the seed alone, so it is never serialized.  Reads fill the
    table, so, like the sketches holding it, a family serves one thread at
    a time.
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
        # Row s holds function s's coefficients, leading first; column-major,
        # so each degree's coefficients ``_coeffs[:, k]`` are contiguous.
        self._coeffs = np.asfortranarray(
            rng.integers(0, int(MERSENNE_P), size=(num_functions, _POLY_DEGREE), dtype=np.uint64)
        )
        # The leading coefficient must be nonzero for full degree.
        zero_lead = self._coeffs[:, 0] == 0
        self._coeffs[zero_lead, 0] = 1
        # Row v holds xi_1(v) .. xi_S(v); an all-zero row is not hashed yet.
        self._table: NDArray[np.int8] | None = None
        if domain_size * num_functions <= SIGN_TABLE_MAX_BYTES:
            self._table = np.zeros((domain_size, num_functions), dtype=np.int8)

    def compatible_with(self, other: "SignFamily") -> bool:
        """Whether two families generate identical sign sequences."""
        return (
            self.domain_size == other.domain_size
            and self.num_functions == other.num_functions
            and self.seed == other.seed
        )

    def _checked(self, indices: NDArray[Any]) -> NDArray[np.intp]:
        idx = np.asarray(indices)
        if idx.size and (idx.min() < 0 or idx.max() >= self.domain_size):
            raise ValueError("index outside the hashed domain")
        return idx.astype(np.intp, copy=False).reshape(-1)

    def _blocks(
        self, idx: NDArray[np.intp], acc: NDArray[np.uint64] | None = None
    ) -> Iterator[tuple[slice, NDArray[np.uint64], NDArray[np.uint64]]]:
        """Yield ``(rows, sums, quotients)`` for in-domain ``idx``, block by block.

        ``sums`` holds the ``S`` polynomials ``c0 x^3 + c1 x^2 + c2 x + c3``
        at ``idx[rows]``, summed over the powers of ``x`` mod ``p`` (below
        ``2^64``) and not reduced, and ``quotients`` holds ``sums // p``.
        ``sums`` is a block of the ``(B, S)`` ``acc`` when one is given, and
        otherwise one block buffer that every block reuses.
        """
        width = max(1, HASH_BLOCK_CELLS // self.num_functions)
        shape = (min(width, idx.shape[0]), self.num_functions)
        quotient = np.empty(shape, dtype=np.uint64)
        block_sums = np.empty(shape, dtype=np.uint64) if acc is None else None
        for rows in _block_slices(idx.shape[0], self.num_functions):
            x = idx[rows].astype(np.uint64)[:, None]
            sums = acc[rows] if block_sums is None else block_sums[: x.shape[0]]
            quotients = quotient[: x.shape[0]]
            square = x * x % MERSENNE_P
            np.multiply(square * x % MERSENNE_P, self._coeffs[:, 0], out=sums)
            for power, degree in ((square, 1), (x, 2)):
                np.multiply(power, self._coeffs[:, degree], out=quotients)
                sums += quotients
            sums += self._coeffs[:, 3]
            np.floor_divide(sums, MERSENNE_P, out=quotients)
            yield rows, sums, quotients

    def _sign_blocks(
        self, idx: NDArray[np.intp]
    ) -> Iterator[tuple[slice, NDArray[np.int8]]]:
        """Yield ``(rows, signs)``: the ``(len(rows), S)`` ±1 signs of ``idx[rows]``.

        ``signs`` is one int8 block buffer that every block reuses.
        """
        out = None
        for rows, sums, quotients in self._blocks(idx):
            if out is None:
                out = np.empty(sums.shape, dtype=np.int8)
            block = out[: sums.shape[0]]
            # p is odd, so the low bit of acc ^ q is that of acc - q p = acc mod p
            np.bitwise_xor(sums, quotients, out=sums)
            np.bitwise_and(sums, 1, out=block, casting="unsafe")
            block *= 2
            block -= 1
            yield rows, block

    def _fill(self, table: NDArray[np.int8], idx: NDArray[np.intp]) -> None:
        """Hash the rows of ``idx`` the table does not hold yet, each once.

        Each hashed block goes straight into the table.
        """
        missing = idx[table[idx, 0] == 0]
        if missing.size:
            # Sort-based dedupe: a plain np.unique imports numpy.ma.
            missing = np.sort(missing)
            missing = missing[np.diff(missing, prepend=-1) != 0]
            for rows, signs in self._sign_blocks(missing):
                table[missing[rows]] = signs

    def _rows(self, idx: NDArray[np.intp]) -> NDArray[np.int8]:
        """``(B, S)`` signs of in-domain ``idx``: a fresh array, never the table."""
        if self._table is not None:
            self._fill(self._table, idx)
            return self._table[idx]
        out = np.empty((idx.shape[0], self.num_functions), dtype=np.int8)
        for rows, signs in self._sign_blocks(idx):
            out[rows] = signs
        return out

    def fill(self, indices: NDArray[Any]) -> None:
        """Hash every value of ``indices`` the table does not hold yet, each once.

        Later :meth:`signs` calls over these values only read the table.  An
        untabled family checks the indices and hashes nothing.
        """
        idx = self._checked(indices)
        if self._table is not None:
            self._fill(self._table, idx)

    def hash_values(self, indices: NDArray[Any]) -> NDArray[Any]:
        """Evaluate all ``S`` polynomials at the given domain indices.

        Returns a ``(S, B)`` uint64 array of values in ``[0, p)``.
        """
        idx = self._checked(indices)
        acc = np.empty((idx.shape[0], self.num_functions), dtype=np.uint64)
        for _, sums, quotients in self._blocks(idx, acc):
            quotients *= MERSENNE_P
            sums -= quotients
        return acc.T

    def signs(self, indices: NDArray[Any]) -> NDArray[Any]:
        """±1 sign matrix ``(S, B)`` for a batch of domain indices.

        The result is the transpose of a fresh ``(B, S)`` array, so ``.T``
        gives one sign row per index without a copy.
        """
        return self._rows(self._checked(indices)).T

    def sign_matrix(self) -> NDArray[Any]:
        """Dense ``(S, n)`` int8 sign matrix over the whole domain, read-only.

        Used by batch construction from frequency vectors and by the
        skimmed sketch's per-value frequency estimation.  A tabled family
        returns a view of its table, which every sketch sharing the family
        reads, so the view cannot be written.
        """
        idx = np.arange(self.domain_size)
        if self._table is None:
            matrix = self._rows(idx).T
        else:
            self._fill(self._table, idx)
            matrix = self._table.T
        matrix.flags.writeable = False
        return matrix
