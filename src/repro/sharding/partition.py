"""Deterministic hash partitioning of stream tuples across shards.

A sharded engine must route every tuple with the same partition-attribute
value to the same shard, in every process, on every run — Python's salted
``hash()`` is therefore unusable.  Rows route on the *domain index* of
their partition value, the integer one engine's relation maps it to, so
equal values share a shard whatever dtype they arrive in.  This module
provides a stable 64-bit mix (Stafford's ``splitmix64`` finalizer) for
such integer columns.

Routing on one attribute means a shard's slice of the exact count tensor
is *cell-disjoint* from every other shard's: a given cell's multiplicity
lives entirely on the shard its partition index hashes to.  That is what
makes per-shard delete checks, run on every shard before any applies its
part, equivalent to one engine's check, and per-shard checkpoints
independently restorable.
"""

from __future__ import annotations

from typing import Any

import numpy as np
from numpy.typing import NDArray

__all__ = ["hash_values", "shard_of_values", "split_rows"]


def hash_values(values: NDArray[Any]) -> NDArray[Any]:
    """Stable 64-bit hashes of a 1-d integer column.

    The splitmix64 finalizer, vectorized: a pure function of the values,
    identical across runs, processes, and platforms.  Any other dtype is
    refused — fleets hash domain indices, never raw values.
    """
    values = np.asarray(values)
    if values.ndim != 1:
        raise ValueError(f"expected a 1-d value column, got shape {values.shape}")
    if not np.issubdtype(values.dtype, np.integer):
        raise ValueError(f"expected an integer column, got dtype {values.dtype}")
    with np.errstate(over="ignore"):
        h = values.astype(np.uint64)
        h = (h ^ (h >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        h = (h ^ (h >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        h = h ^ (h >> np.uint64(31))
    return h


def shard_of_values(values: NDArray[Any], num_shards: int) -> NDArray[Any]:
    """Shard index (``0..num_shards-1``) for each value in a column."""
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    if num_shards == 1:
        return np.zeros(np.asarray(values).shape[0], dtype=np.int64)
    return (hash_values(values) % np.uint64(num_shards)).astype(np.int64)


def split_rows(
    rows: NDArray[Any], keys: NDArray[Any], num_shards: int
) -> list[NDArray[Any]]:
    """Split a ``(B, ndim)`` row batch into per-shard sub-batches.

    Row ``i`` goes to the shard of ``keys[i]``, its partition value's
    domain index; within each shard the original arrival order is
    preserved (stable selection), so per-shard synopsis state is
    independent of how the batch was framed.
    """
    rows = np.asarray(rows)
    if rows.ndim != 2:
        raise ValueError(f"expected a (B, ndim) row batch, got shape {rows.shape}")
    keys = np.asarray(keys)
    if keys.shape != rows.shape[:1]:
        raise ValueError(
            f"expected one partition key per row ({rows.shape[0]}), got shape {keys.shape}"
        )
    if num_shards == 1:
        return [rows]
    shards = shard_of_values(keys, num_shards)
    return [rows[shards == s] for s in range(num_shards)]
