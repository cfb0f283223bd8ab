"""REP002: checkpointed classes must serialize (or exempt) their whole state.

:mod:`repro.resilience.checkpoint` persists any object exposing the
``state_dict()`` / ``load_state()`` pair.  A field added to ``__init__``
but forgotten in ``state_dict`` silently survives a crash with its
constructor default — estimates drift instead of failing loudly.  This
rule walks the :class:`~repro.analysis.graph.ProjectGraph` class index
and checks every class whose project MRO defines both protocol methods,
whether it defines them itself or inherits them (``DegreeObserver`` and
``FlakyObserver`` inherit across package boundaries).  Each attribute
assigned in the class's *own* ``__init__`` must be read by some
``state_dict`` in the MRO (a ``return self.inner.state_dict()``
delegation counts — the delegate attribute is read) or be listed in a
``_checkpoint_exempt`` tuple anywhere in the MRO (the opt-out for
structural state rebuilt from the spec).  A finding on an inherited
protocol carries a related location pointing at the ``state_dict`` that
misses the attribute.  The graph indexes module-level classes only, so
a nested class is not checked.

The serialized *shape* of every class that defines both methods itself
is additionally pinned in a generated manifest
(:mod:`repro.resilience.state_manifest`).  Changing a class's state
shape without regenerating the manifest — and bumping ``FORMAT_VERSION``
in ``checkpoint.py``, which the regenerator enforces — is a finding,
because old checkpoints would be restored into a layout they were never
written for.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Any, Iterator, Mapping

from ..core import Finding, RelatedLocation, SourceTree
from ..graph import ClassInfo, FunctionInfo, ProjectGraph
from .base import Rule, is_self_attribute

__all__ = [
    "CheckpointCoverageRule",
    "EXEMPT_ATTRIBUTE",
    "load_format_version",
    "load_manifest",
    "manifest_entries",
]

#: Class attribute naming ``__init__`` state that is deliberately not
#: serialized (structural parameters rebuilt from the query spec).
EXEMPT_ATTRIBUTE = "_checkpoint_exempt"
_PROTOCOL = ("state_dict", "load_state")
#: Dunder-adjacent attributes never expected in a checkpoint payload.
_ALWAYS_EXEMPT = {"_lock"}


def _self_reads(method: FunctionInfo) -> set[str]:
    """Every ``self.<attr>`` a method touches."""
    return {
        node.attr
        for node in ast.walk(method.node)
        if isinstance(node, ast.Attribute) and is_self_attribute(node)
    }


def manifest_entries(graph: ProjectGraph) -> dict[str, tuple[ClassInfo, list[str]]]:
    """``<file>::<Class>`` -> (class, serialized attributes) for the manifest.

    The manifest pins classes that define both protocol methods
    themselves; their shape is what their own ``state_dict`` reads.
    """
    return {
        f"{cls.source.rel_path}::{cls.name}": (
            cls,
            sorted(_self_reads(cls.methods["state_dict"])),
        )
        for cls in graph.classes.values()
        if all(method in cls.methods for method in _PROTOCOL)
    }


def load_manifest(path: Path) -> tuple[int | None, dict[str, list[str]]] | None:
    """Parse ``FORMAT_VERSION`` and ``STATE_MANIFEST`` literals from the manifest."""
    if not path.is_file():
        return None
    module = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    version: int | None = None
    entries: dict[str, list[str]] | None = None
    for node in module.body:
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if not isinstance(target, ast.Name):
                continue
            if target.id == "FORMAT_VERSION":
                value = ast.literal_eval(node.value)
                version = int(value) if isinstance(value, int) else None
            elif target.id == "STATE_MANIFEST":
                raw = ast.literal_eval(node.value)
                entries = {
                    str(key): [str(attr) for attr in attrs]
                    for key, attrs in raw.items()
                }
    if entries is None:
        return None
    return version, entries


def load_format_version(path: Path) -> int | None:
    """Read the integer ``FORMAT_VERSION`` constant out of ``checkpoint.py``."""
    if not path.is_file():
        return None
    module = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(module):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name) and target.id == "FORMAT_VERSION":
                value = node.value
                if isinstance(value, ast.Constant) and isinstance(value.value, int):
                    return value.value
    return None


class CheckpointCoverageRule(Rule):
    code = "REP002"
    name = "checkpoint-coverage"
    description = (
        "checkpoint-protocol classes, defined or inherited, must serialize "
        "or explicitly exempt every __init__ attribute, and state-shape "
        "changes must bump the checkpoint FORMAT_VERSION via the generated "
        "manifest"
    )

    def check(self, tree: SourceTree, config: Mapping[str, Any]) -> list[Finding]:
        options = self.options(config)
        manifest_rel = str(options.get("manifest", "src/repro/resilience/state_manifest.py"))
        format_rel = str(options.get("format-source", "src/repro/resilience/checkpoint.py"))
        graph = ProjectGraph.for_tree(tree)
        findings: list[Finding] = []
        for cls in graph.classes.values():
            state_owner = graph.method_owner(cls, "state_dict")
            if state_owner is not None and graph.method_owner(cls, "load_state") is not None:
                findings.extend(self._coverage_findings(graph, cls, state_owner))
        findings.extend(
            self._manifest_findings(tree, manifest_entries(graph), manifest_rel, format_rel)
        )
        return findings

    def _coverage_findings(
        self, graph: ProjectGraph, cls: ClassInfo, state_owner: ClassInfo
    ) -> Iterator[Finding]:
        serialized: set[str] = set()
        for owner in graph.mro(cls):
            if "state_dict" in owner.methods:
                serialized |= _self_reads(owner.methods["state_dict"])
        exempt = set(graph.class_tuple(cls, EXEMPT_ATTRIBUTE)) | _ALWAYS_EXEMPT
        for attr in sorted(set(cls.init_attrs) - serialized - exempt):
            if state_owner is cls:
                yield self.finding(
                    cls.source,
                    cls.init_attrs[attr],
                    f"{cls.name}.{attr} is assigned in __init__ but never "
                    "serialized by state_dict; serialize it or list it in "
                    f"{EXEMPT_ATTRIBUTE} with a comment saying why it is "
                    "rebuilt structurally",
                )
                continue
            yield self.finding(
                cls.source,
                cls.init_attrs[attr],
                f"{cls.name}.{attr} is assigned in __init__ but the "
                f"checkpoint protocol inherited from {state_owner.qualname} "
                "never serializes it; a restore would silently reset it — "
                f"serialize it, override state_dict, or list it in {EXEMPT_ATTRIBUTE}",
                related=(
                    RelatedLocation(
                        state_owner.source.rel_path,
                        int(state_owner.methods["state_dict"].node.lineno),
                        f"inherited state_dict defined here omits {attr!r}",
                    ),
                ),
            )
        own_exempt = set(cls.class_tuples.get(EXEMPT_ATTRIBUTE, ()))
        anchor = _exempt_statement(cls)
        for attr in sorted(own_exempt & serialized):
            yield self.finding(
                cls.source,
                anchor,
                f"{cls.name}.{attr} is listed in {EXEMPT_ATTRIBUTE} but is "
                "serialized by state_dict; drop the stale exemption",
            )
        for attr in sorted(own_exempt - set(cls.init_attrs)):
            yield self.finding(
                cls.source,
                anchor,
                f"{cls.name}.{attr} is listed in {EXEMPT_ATTRIBUTE} but is "
                "never assigned in __init__; drop the stale exemption",
            )

    def _manifest_findings(
        self,
        tree: SourceTree,
        entries: dict[str, tuple[ClassInfo, list[str]]],
        manifest_rel: str,
        format_rel: str,
    ) -> Iterator[Finding]:
        hint = "regenerate with `python -m repro.analysis --update-state-manifest`"
        loaded = load_manifest(tree.root / manifest_rel)
        if loaded is None:
            if entries:
                cls, _ = next(iter(entries.values()))
                yield self.finding(
                    cls.source, cls.node, f"no state manifest at {manifest_rel}; {hint}"
                )
            return
        manifest_version, manifest = loaded
        current_version = load_format_version(tree.root / format_rel)
        anchor = tree.by_rel_path(manifest_rel)
        if (
            current_version is not None
            and manifest_version is not None
            and current_version != manifest_version
            and anchor is not None
        ):
            yield self.finding(
                anchor,
                anchor.tree,
                f"manifest was generated at checkpoint FORMAT_VERSION "
                f"{manifest_version} but {format_rel} now declares "
                f"{current_version}; {hint}",
            )
        for key, (cls, shape) in entries.items():
            recorded = manifest.get(key)
            if recorded is None:
                yield self.finding(
                    cls.source,
                    cls.node,
                    f"{cls.name} implements the checkpoint protocol but has "
                    f"no entry in {manifest_rel}; {hint}",
                )
            elif recorded != shape:
                yield self.finding(
                    cls.source,
                    cls.node,
                    f"{cls.name} state shape changed (manifest records "
                    f"{recorded}, code serializes {shape}); bump "
                    f"FORMAT_VERSION in {format_rel} and {hint}",
                )
        if anchor is not None:
            for key in sorted(set(manifest) - set(entries)):
                yield self.finding(
                    anchor,
                    anchor.tree,
                    f"manifest entry {key!r} matches no checkpoint-protocol "
                    f"class; {hint}",
                )


def _exempt_statement(cls: ClassInfo) -> ast.AST:
    """The class-body statement assigning the exemption tuple, else the class."""
    for stmt in cls.node.body:
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
        if any(isinstance(t, ast.Name) and t.id == EXEMPT_ATTRIBUTE for t in targets):
            return stmt
    return cls.node
