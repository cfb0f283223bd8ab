"""Stream substrate: relations, operations, queries, exact ground truth,
and the continuous query engine (the paper's processing model).

Every name is imported from its submodule on first use.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .engine import ContinuousQueryEngine, StreamEngine, embed_counts_tensor
    from .io import format_op_line, parse_op_line, read_ops, replay_into, write_ops
    from .stats import EngineStats
    from .exact import (
        exact_join_size,
        exact_multijoin_size,
        exact_self_join_size,
        relative_error,
    )
    from .queries import AttributeRef, EquiJoinPredicate, JoinQuery
    from .relation import StreamObserver, StreamRelation
    from .tuples import OpKind, StreamOp, deletes, inserts, interleave

_EXPORTS = {
    ".engine": ("ContinuousQueryEngine", "StreamEngine", "embed_counts_tensor"),
    ".io": ("format_op_line", "parse_op_line", "read_ops", "replay_into", "write_ops"),
    ".stats": ("EngineStats",),
    ".exact": (
        "exact_join_size",
        "exact_multijoin_size",
        "exact_self_join_size",
        "relative_error",
    ),
    ".queries": ("AttributeRef", "EquiJoinPredicate", "JoinQuery"),
    ".relation": ("StreamObserver", "StreamRelation"),
    ".tuples": ("OpKind", "StreamOp", "deletes", "inserts", "interleave"),
}
__getattr__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "ContinuousQueryEngine",
    "StreamEngine",
    "EngineStats",
    "embed_counts_tensor",
    "format_op_line",
    "parse_op_line",
    "read_ops",
    "replay_into",
    "write_ops",
    "exact_join_size",
    "exact_multijoin_size",
    "exact_self_join_size",
    "relative_error",
    "AttributeRef",
    "EquiJoinPredicate",
    "JoinQuery",
    "StreamObserver",
    "StreamRelation",
    "OpKind",
    "StreamOp",
    "deletes",
    "inserts",
    "interleave",
]
