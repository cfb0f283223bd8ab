"""Horizontal sharding: hash-partitioned engines behind one query surface.

:class:`ShardedStreamEngine` splits every relation's stream across N
independent :class:`~repro.streams.engine.StreamEngine` shards (serial,
thread, or process placement via :class:`ShardExecutor`), merges
per-shard synopsis state where the estimators are linear, and keeps the
order-dependent methods on a coordinator replica — so every one of the
paper's estimation methods answers exactly as an unsharded engine would.
See :mod:`repro.sharding.merge` for the method taxonomy and
``docs/SHARDING.md`` for the design walk-through.

Every name is imported from its submodule on first use.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .engine import PartialAnswer, ShardedStreamEngine
    from .executor import (
        ProcessExecutor,
        SerialExecutor,
        ShardError,
        ShardExecutor,
        ThreadExecutor,
        resolve_executor,
    )
    from .merge import COORDINATOR_METHODS, MERGEABLE_METHODS, merge_observer_states
    from .partition import hash_values, shard_of_values, split_rows
    from .worker import ShardWorker

_EXPORTS = {
    ".engine": ("PartialAnswer", "ShardedStreamEngine"),
    ".executor": (
        "ProcessExecutor",
        "SerialExecutor",
        "ShardError",
        "ShardExecutor",
        "ThreadExecutor",
        "resolve_executor",
    ),
    ".merge": ("COORDINATOR_METHODS", "MERGEABLE_METHODS", "merge_observer_states"),
    ".partition": ("hash_values", "shard_of_values", "split_rows"),
    ".worker": ("ShardWorker",),
}
__getattr__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "COORDINATOR_METHODS",
    "MERGEABLE_METHODS",
    "PartialAnswer",
    "ProcessExecutor",
    "SerialExecutor",
    "ShardError",
    "ShardExecutor",
    "ShardWorker",
    "ShardedStreamEngine",
    "ThreadExecutor",
    "hash_values",
    "merge_observer_states",
    "resolve_executor",
    "shard_of_values",
    "split_rows",
]
