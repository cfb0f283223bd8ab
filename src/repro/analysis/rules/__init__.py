"""The rule catalog: one class per repository invariant.

Every rule subclasses :class:`Rule` and implements
``check(tree, config) -> list[Finding]`` over the whole
:class:`~repro.analysis.core.SourceTree`, so rules that need cross-file
state (the metric catalog, the checkpoint-state manifest) see everything
at once while per-file rules simply loop.  Rules that ask about classes
(REP002, REP005, REP007) or call paths (REP008, REP011) query the shared
:class:`~repro.analysis.graph.ProjectGraph` (import graph, class
hierarchy, call graph) instead of re-walking files.  ``ALL_RULES`` is
the registry the runner and ``--list-rules`` consume; codes are stable
public API (they appear in ``# repro: noqa[...]`` comments and
baselines), so new rules append codes rather than renumbering, and a
retired code stays accepted through
:data:`~repro.analysis.core.RETIRED_CODES`.
"""

from __future__ import annotations

from .async_safety import AsyncSafetyRule
from .base import Rule
from .checkpoints import CheckpointCoverageRule
from .concurrency import ConcurrencyDisciplineRule
from .executors import ExecutorProtocolRule
from .hotpath import HotPathPurityRule
from .metrics import MetricCatalogRule
from .numerics import NumericHygieneRule
from .observers import ObserverProtocolRule
from .sharding import ShardSafetyRule

__all__ = [
    "ALL_RULES",
    "AsyncSafetyRule",
    "CheckpointCoverageRule",
    "ConcurrencyDisciplineRule",
    "ExecutorProtocolRule",
    "HotPathPurityRule",
    "MetricCatalogRule",
    "NumericHygieneRule",
    "ObserverProtocolRule",
    "Rule",
    "ShardSafetyRule",
]

#: Registry order is report order for equal locations; codes must be unique.
ALL_RULES: tuple[Rule, ...] = (
    MetricCatalogRule(),
    CheckpointCoverageRule(),
    ShardSafetyRule(),
    NumericHygieneRule(),
    ObserverProtocolRule(),
    HotPathPurityRule(),
    ExecutorProtocolRule(),
    ConcurrencyDisciplineRule(),
    AsyncSafetyRule(),
)
