"""Attribute domains and normalization onto the unit interval.

Implements section 3.1 (mapping attribute values into [0, 1]) and section
4.1 (unifying the domains of a join-attribute pair before normalization, by
extending both attributes to ``[min(l_A, l_B), max(r_A, r_B)]`` with zero
frequency outside their original ranges).

A :class:`Domain` describes the *discrete* set of values an attribute can
take — either a dense integer range or an explicit categorical value list —
and knows how to map raw values to domain indices ``0..n-1`` and onto a
normalized grid (see :mod:`repro.core.basis` for the two grid kinds).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from typing import Any, Callable, Hashable, Iterable, Sequence

import numpy as np
from numpy.typing import NDArray

from .basis import GridKind, make_grid


@dataclass(frozen=True)
class Domain:
    """A discrete attribute domain of ``size`` distinct values.

    Use the constructors :meth:`integer_range` and :meth:`categorical`
    rather than instantiating directly.
    """

    size: int
    low: int | None = None
    _categories: tuple[Hashable, ...] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"domain size must be >= 1, got {self.size}")

    @classmethod
    def integer_range(cls, low: int, high: int) -> "Domain":
        """Domain of the consecutive integers ``low..high`` (inclusive)."""
        if high < low:
            raise ValueError(f"empty integer range [{low}, {high}]")
        return cls(size=high - low + 1, low=low)

    @classmethod
    def of_size(cls, n: int) -> "Domain":
        """Domain of the integers ``0..n-1`` — the common benchmark shape."""
        return cls.integer_range(0, n - 1)

    @classmethod
    def categorical(cls, values: Sequence[Hashable]) -> "Domain":
        """Domain of arbitrary hashable values, mapped to indices by position.

        This realizes the section 3.1 remark that categorical attributes are
        handled "by mapping each categorical value to a distinct number".
        """
        cats = tuple(values)
        if not cats:
            raise ValueError("categorical domain needs at least one value")
        if len(set(cats)) != len(cats):
            raise ValueError("categorical domain values must be distinct")
        return cls(size=len(cats), low=None, _categories=cats)

    @property
    def is_categorical(self) -> bool:
        return self._categories is not None

    @property
    def high(self) -> int | None:
        """Inclusive upper bound for integer-range domains, else ``None``."""
        if self.low is None:
            return None
        return self.low + self.size - 1

    @cached_property
    def _lookup(self) -> dict[Hashable, int]:
        """``{category: index}``, built on the first categorical lookup."""
        return {v: i for i, v in enumerate(self._categories or ())}

    def __getstate__(self) -> dict[str, Any]:
        # The lookup is derived from the categories; pickles and copies
        # rebuild it on their first lookup instead of carrying it.
        return {k: v for k, v in self.__dict__.items() if k != "_lookup"}

    def locate(
        self, values: NDArray[Any] | Sequence[Hashable]
    ) -> tuple[NDArray[Any], NDArray[Any]]:
        """Each value's int64 domain index, and a mask of the values in the domain.

        The one membership decision; it never raises on a value, and a
        non-member's index is meaningless.  An integer range holds its
        integers, bools and integer-valued floats, never strings, complex
        numbers or ``None``.  Int64 values over a 0-based domain are their
        own indices, returned uncopied.
        """
        if self._categories is not None:
            if isinstance(values, np.ndarray):
                values = values.tolist()  # Python values hash faster than numpy scalars
            find = self._lookup.get
            try:
                found = [find(v, -1) for v in values]
            except TypeError:  # an unhashable value
                found = [_find(find, v) for v in values]
            indices = np.array(found, dtype=np.int64)
            return indices, indices >= 0
        arr = np.asarray(values)
        assert self.low is not None and self.high is not None
        low, high = self.low, self.high
        if arr.dtype.kind in "iub":
            if arr.dtype == np.int64 and low == 0:
                # Read as uint64, a negative value is above every domain size.
                return arr, arr.view(np.uint64) < self.size
            return arr.astype(np.int64, copy=False) - low, (arr >= low) & (arr <= high)
        if arr.dtype.kind == "f":
            members = (arr == np.floor(arr)) & (arr >= low) & (arr <= high)
            return np.where(members, arr, 0).astype(np.int64) - low, members
        if arr.dtype != object:  # strings, complex numbers, dates
            return np.zeros(arr.shape, dtype=np.int64), np.zeros(arr.shape, dtype=bool)
        if all(issubclass(kind, (int, np.integer)) for kind in set(map(type, arr))):
            try:
                return self.locate(arr.astype(np.int64))
            except OverflowError:  # ints beyond int64 are read one by one
                pass
        offsets = [_integral(v) for v in arr]
        indices = np.array(
            [-1 if v is None or not low <= v <= high else v - low for v in offsets],
            dtype=np.int64,
        )
        return indices, indices >= 0

    def indices_of(self, values: NDArray[Any] | Sequence[Hashable]) -> NDArray[Any]:
        """Map raw attribute values to domain indices ``0..size-1``.

        Raises ``ValueError`` on any value :meth:`locate` finds outside the
        domain.  Int64 values over a 0-based domain come back uncopied.
        """
        indices, members = self.locate(values)
        if members.all():
            return indices
        bad = [v for v, member in zip(values, members.tolist()) if not member]
        if self._categories is not None:
            raise ValueError(f"value {bad[0]!r} not in categorical domain")
        if any(_integral(v) is None for v in bad):
            raise ValueError("non-integer values in an integer-range domain")
        raise ValueError(
            f"values outside integer domain [{self.low}, {self.high}]: {np.asarray(bad)[:5]}"
        )

    def index_of(self, value: Hashable) -> int:
        """Map a single raw value to its domain index."""
        return int(self.indices_of([value])[0])

    def grid(self, kind: GridKind = "midpoint") -> NDArray[Any]:
        """Normalized positions of all domain values on the given grid."""
        return make_grid(self.size, kind)

    def positions_of(
        self, values: NDArray[Any] | Sequence[Hashable], kind: GridKind = "midpoint"
    ) -> NDArray[Any]:
        """Normalized [0, 1] positions of raw values (section 3.1)."""
        idx = self.indices_of(values)
        if kind == "midpoint":
            return (2.0 * idx + 1.0) / (2.0 * self.size)
        if self.size == 1:
            return np.full(idx.shape, 0.5)
        return idx / (self.size - 1.0)


def _integral(value: Any) -> int | None:
    """``value`` as an int when it is an integer, a bool or an integer-valued float."""
    if isinstance(value, (int, np.integer, np.bool_)):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    return None


def _find(find: Callable[[Any, int], int], value: Any) -> int:
    """``find(value, -1)``, or ``-1`` for an unhashable value."""
    try:
        return find(value, -1)
    except TypeError:
        return -1


def as_rows(rows: Any) -> NDArray[Any]:
    """``np.asarray(rows)``, keeping each value's own type in mixed rows.

    numpy turns a row such as ``("austin", 30)`` into strings (``"30"``),
    and so a categorical value list such as ``[1.5, "a"]``.  When that
    happens to values that were not all strings, the rows come back as an
    object array of the original values instead.  A first row that mixes
    strings with other values goes straight to that object array; other
    string rows are converted once and their types read from ``rows``
    itself.  An array is returned as it is.
    """
    if isinstance(rows, np.ndarray):
        return rows
    if isinstance(rows, (list, tuple)) and rows and isinstance(rows[0], (list, tuple)):
        strings = [isinstance(value, (str, bytes)) for value in rows[0]]
        if any(strings) and not all(strings):
            mixed = np.asarray(rows, dtype=object)
            if mixed.ndim > 1:  # ragged rows raise below, as numpy refuses them
                return mixed
    arr = np.asarray(rows)
    if arr.dtype.kind not in "US":
        return arr
    values: Iterable[Any] = rows
    for _ in range(arr.ndim - 1):
        values = chain.from_iterable(values)
    if all(map(isinstance, values, repeat((str, bytes)))):
        return arr
    return np.asarray(rows, dtype=object)


def index_map(original: Domain, unified: Domain) -> NDArray[Any]:
    """The index in ``unified`` of each index of ``original`` (section 4.1).

    ``unified`` must contain every value of ``original``.
    """
    if original.is_categorical or unified.is_categorical:
        assert original._categories is not None
        return unified.indices_of(original._categories)
    assert original.low is not None and unified.low is not None
    offset = original.low - unified.low
    if offset < 0 or offset + original.size > unified.size:
        raise ValueError("original domain does not fit inside the unified domain")
    return np.arange(offset, offset + original.size, dtype=np.int64)


#: :func:`distinct_cells` counts a batch over its whole grid when the grid
#: has at most this many cells per batch row, and sorts the batch
#: otherwise.  Measured from 16 to 65,536 rows: counting wins at 4 cells
#: per row or fewer and loses from 8 on.
COUNT_CELLS_PER_ROW = 4

_INT64_MAX = int(np.iinfo(np.int64).max)

#: ``first`` and ``counts`` of a one-row batch, shared read-only.
_ZERO = np.zeros(1, dtype=np.intp)
_ONE = np.ones(1, dtype=np.intp)
_ZERO.flags.writeable = _ONE.flags.writeable = False


def distinct_cells(
    indices: NDArray[Any], shape: Sequence[int], weights: NDArray[Any] | None = None
) -> tuple[NDArray[Any], NDArray[Any], NDArray[Any]]:
    """Distinct rows of a ``(B, d)`` batch of domain indices over ``shape``.

    Returns ``(cells, first, counts)``: the sorted distinct cells as flat
    indices into ``shape``, the batch position of each cell's first row,
    and how many rows hit it, or the sum of their positive integer
    ``weights`` when given.  Flattening first makes this a 1-d problem, far
    cheaper than ``np.unique(axis=0)`` on the rows themselves.  A grid of at
    most :data:`COUNT_CELLS_PER_ROW` cells per row is counted in one pass
    (``np.bincount``); a sparser batch is sorted.  Both give the same
    arrays, dtypes included.  When ``shape`` has more cells than an int64
    can number, the cells are the distinct rows themselves, in the same
    (lexicographic) order, and rows are not weighted.
    """
    indices = np.asarray(indices)
    size = math.prod(shape)
    if size > _INT64_MAX:
        if weights is not None:
            raise ValueError("weights need a grid an int64 can number")
        rows, first, counts = np.unique(indices, axis=0, return_index=True, return_counts=True)
        return rows, first, counts
    flat = np.ravel_multi_index(indices.T, tuple(shape))
    num_rows = flat.shape[0]
    if num_rows == 1:
        return flat, _ZERO, _ONE if weights is None else np.array(weights, np.int64)
    if size <= COUNT_CELLS_PER_ROW * num_rows:
        hits = np.bincount(flat, weights, minlength=size)
        cells = np.flatnonzero(hits)
        first = np.full(size, num_rows, dtype=np.intp)
        np.minimum.at(first, flat, np.arange(num_rows))
        return cells, first[cells], hits[cells].astype(np.int64, copy=False)
    if weights is None:
        cells, first, counts = np.unique(flat, return_index=True, return_counts=True)
        return cells, first, counts
    cells, first, inverse = np.unique(flat, return_index=True, return_inverse=True)
    return cells, first, np.bincount(inverse, weights).astype(np.int64)


def unify_domains(a: Domain, b: Domain) -> Domain:
    """Return the unified domain of a join-attribute pair (section 4.1).

    For integer ranges this is ``[min(l_A, l_B), max(r_A, r_B)]`` — values a
    relation never holds simply have frequency zero.  Categorical domains
    unify by the union of their value sets (categories of ``a`` first, then
    the categories only in ``b``, preserving order).
    """
    if a.is_categorical != b.is_categorical:
        raise ValueError("cannot unify a categorical domain with an integer range")
    if a.is_categorical:
        assert a._categories is not None and b._categories is not None
        seen = set(a._categories)
        merged = list(a._categories) + [v for v in b._categories if v not in seen]
        return Domain.categorical(merged)
    assert a.low is not None and b.low is not None and a.high is not None and b.high is not None
    return Domain.integer_range(min(a.low, b.low), max(a.high, b.high))


def embed_counts(counts: NDArray[Any], original: Domain, unified: Domain) -> NDArray[Any]:
    """Re-index a frequency vector from its original domain into a unified one.

    Positions outside the original domain get frequency zero, per the
    section 4.1 convention.
    """
    counts = np.asarray(counts)
    if counts.shape[0] != original.size:
        raise ValueError(
            f"counts length {counts.shape[0]} does not match domain size {original.size}"
        )
    out = np.zeros(unified.size, dtype=counts.dtype)
    out[index_map(original, unified)] = counts
    return out
