"""REP006: keep coefficient maintenance behind the ``repro.fastpath`` seam.

Batch coefficient maintenance must build its basis tables through
``repro.fastpath`` (the Chebyshev recurrence / compiled kernels), not by
per-entry trig evaluation.  Files under the configured ``kernel-paths``
may not call ``basis_matrix``, ``np.cos``, ``numpy.cos`` or ``phi``
directly — the blessed implementations live under ``kernel-seam``
(``src/repro/fastpath`` by default), which is exempt because it *is* the
seam, as are the reference modules the seam is checked against.  A
justified call takes an inline ``# repro: noqa[REP006]``.
"""

from __future__ import annotations

import ast
from typing import Any, Iterator, Mapping

from ..core import Finding, SourceFile, SourceTree
from .base import Rule, call_name, path_in

__all__ = ["HotPathPurityRule"]

#: Calls that reintroduce per-entry basis evaluation outside the fastpath
#: seam.
_KERNEL_CALLS = {"basis_matrix", "np.cos", "numpy.cos", "phi"}

#: Default home of the blessed kernel implementations, exempt from the
#: seam check (overridable via the ``kernel-seam`` option).
_KERNEL_SEAM = ("src/repro/fastpath",)


class HotPathPurityRule(Rule):
    code = "REP006"
    name = "hot-path"
    description = "no per-entry basis evaluation outside the repro.fastpath seam"

    def check(self, tree: SourceTree, config: Mapping[str, Any]) -> list[Finding]:
        options = self.options(config)
        kernel_paths = tuple(str(p) for p in options.get("kernel-paths", ()))
        kernel_seam = tuple(str(p) for p in options.get("kernel-seam", _KERNEL_SEAM))
        findings: list[Finding] = []
        for source in tree:
            if path_in(source.rel_path, kernel_paths) and not path_in(
                source.rel_path, kernel_seam
            ):
                findings.extend(self._check_kernel_seam(source))
        return findings

    def _check_kernel_seam(self, source: SourceFile) -> Iterator[Finding]:
        """Flag direct basis evaluation that bypasses ``repro.fastpath``."""
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name in _KERNEL_CALLS:
                yield self.finding(
                    source,
                    node,
                    f"direct basis evaluation {name}(...) bypasses the "
                    "repro.fastpath seam; build basis tables with "
                    "repro.fastpath.phi_block so the recurrence/compiled "
                    "kernels stay the only implementation",
                )
