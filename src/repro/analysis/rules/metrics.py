"""REP001: every ``repro_*`` metric must agree with the generated catalog.

:meth:`repro.obs.metrics.MetricsRegistry.merge` raises at runtime when
two shard registries hold the same metric name with a different kind or
label set — a failure mode that only appears once a fleet folds its
registries together.  This rule makes the contract static: every
``.counter("repro_...")`` / ``.gauge(...)`` / ``.histogram(...)``
registration anywhere in the tree must match the single generated
catalog (:mod:`repro.obs.catalog`, refreshed with
``python -m repro.analysis --update-metric-catalog``), and the catalog
must not carry stale entries.  Label tuples written as
``("relation", *extra)`` are the engine's optional-shard-suffix idiom
and match catalog entries flagged ``shard_suffix``.

Metric names also appear far from their registration: dashboards fetch
them by name, tests assert on them, exporters and docs embed them.  A
renamed metric leaves those references silently pointing at nothing, so
every other string literal that *is* a full metric name (matches
``repro_[a-z0-9_]+``) must be a catalog entry too, unless the ``allow``
option lists it.  The generated catalog module itself is skipped.
Registration sites, stale entries and references together make the
catalog agree with the tree in both directions.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Mapping

from ..core import Finding, SourceFile, SourceTree
from .base import Rule, string_tuple

__all__ = ["CatalogEntry", "MetricCatalogRule", "MetricSite", "load_catalog", "scan_metric_sites"]

#: Metric names under this prefix must agree with the generated catalog.
PREFIX = "repro_"
_NAME_RE = re.compile(re.escape(PREFIX) + r"[a-z0-9]+(?:_[a-z0-9]+)*\Z")
_REGISTRY_METHODS = {"counter": "counter", "gauge": "gauge", "histogram": "histogram"}


@dataclass(frozen=True)
class MetricSite:
    """One registry registration call site."""

    source: SourceFile
    node: ast.Call
    name: str
    kind: str
    help: str
    labels: tuple[str, ...] | None  # None = not statically resolvable
    has_star: bool


@dataclass(frozen=True)
class CatalogEntry:
    kind: str
    labels: tuple[str, ...]
    shard_suffix: bool
    help: str


def scan_metric_sites(tree: SourceTree) -> list[MetricSite]:
    """Every ``.counter/.gauge/.histogram("repro_...")`` call in the tree."""
    sites: list[MetricSite] = []
    for source in tree:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
                continue
            kind = _REGISTRY_METHODS.get(node.func.attr)
            if kind is None or not node.args:
                continue
            first = node.args[0]
            if not isinstance(first, ast.Constant) or not isinstance(first.value, str):
                continue
            if not first.value.startswith(PREFIX):
                continue
            help_text = ""
            if len(node.args) > 1:
                second = node.args[1]
                if isinstance(second, ast.Constant) and isinstance(second.value, str):
                    help_text = second.value
            labels_node: ast.AST | None = node.args[2] if len(node.args) > 2 else None
            for keyword in node.keywords:
                if keyword.arg == "labelnames":
                    labels_node = keyword.value
                elif keyword.arg == "help":
                    value = keyword.value
                    if isinstance(value, ast.Constant) and isinstance(value.value, str):
                        help_text = value.value
            labels: tuple[str, ...] | None = ()
            has_star = False
            if labels_node is not None:
                resolved = string_tuple(labels_node)
                if resolved is None:
                    labels = None
                else:
                    labels, has_star = resolved
            sites.append(
                MetricSite(source, node, first.value, kind, help_text, labels, has_star)
            )
    return sites


def load_catalog(path: Path) -> dict[str, CatalogEntry] | None:
    """Parse ``METRIC_CATALOG`` out of the generated catalog module.

    The file is read as an AST literal, not imported, so the analysis
    stays independent of the package under inspection.  Returns ``None``
    when the file is missing or holds no catalog.
    """
    if not path.is_file():
        return None
    module = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in module.body:
        if not isinstance(node, ast.Assign):
            continue
        if any(isinstance(t, ast.Name) and t.id == "METRIC_CATALOG" for t in node.targets):
            raw = ast.literal_eval(node.value)
            catalog: dict[str, CatalogEntry] = {}
            for name, entry in raw.items():
                catalog[str(name)] = CatalogEntry(
                    kind=str(entry["kind"]),
                    labels=tuple(str(label) for label in entry["labels"]),
                    shard_suffix=bool(entry.get("shard_suffix", False)),
                    help=str(entry.get("help", "")),
                )
            return catalog
    return None


class MetricCatalogRule(Rule):
    code = "REP001"
    name = "metric-catalog"
    description = (
        "repro_* metric registrations must match the generated catalog "
        "(name, kind, and label set), so sharded registries stay mergeable, "
        "and every other repro_* metric-name literal must be catalogued"
    )

    def check(self, tree: SourceTree, config: Mapping[str, Any]) -> list[Finding]:
        options = self.options(config)
        catalog_rel = str(options.get("catalog", "src/repro/obs/catalog.py"))
        allow = {str(name) for name in options.get("allow", ())}
        return list(self._findings(tree, catalog_rel, allow))

    def _findings(self, tree: SourceTree, catalog_rel: str, allow: set[str]) -> Iterator[Finding]:
        catalog = load_catalog(tree.root / catalog_rel)
        sites = scan_metric_sites(tree)
        hint = "regenerate with `python -m repro.analysis --update-metric-catalog`"
        for site in sites:
            if site.labels is None:
                yield self.finding(
                    site.source,
                    site.node,
                    f"metric {site.name!r}: labelnames are not a literal "
                    "tuple of strings, so catalog conformance cannot be "
                    "checked statically",
                )
                continue
            entry = None if catalog is None else catalog.get(site.name)
            if entry is None:
                where = "missing" if catalog is None else "not in"
                yield self.finding(
                    site.source,
                    site.node,
                    f"metric {site.name!r} is {where} the catalog {catalog_rel}; {hint}",
                )
            elif entry.kind != site.kind:
                yield self.finding(
                    site.source,
                    site.node,
                    f"metric {site.name!r} is registered as a {site.kind} "
                    f"here but catalogued as a {entry.kind}; "
                    "MetricsRegistry.merge would raise on this drift",
                )
            elif not _labels_match(site, entry):
                expected = _expected_labels_text(entry)
                got = "(" + ", ".join(site.labels) + (", *shard" if site.has_star else "") + ")"
                yield self.finding(
                    site.source,
                    site.node,
                    f"metric {site.name!r} is registered with labels {got} "
                    f"but catalogued with {expected}; "
                    "MetricsRegistry.merge would raise on this drift",
                )
        if catalog:
            used = {site.name for site in sites}
            anchor = tree.by_rel_path(catalog_rel)
            for name in sorted(set(catalog) - used):
                message = f"catalog entry {name!r} matches no registration site; {hint}"
                if anchor is not None:
                    yield self.finding(anchor, anchor.tree, message)
                else:
                    yield Finding(self.code, self.name, catalog_rel, 1, 0, message)
        # Every other full metric-name literal must name a catalog entry.
        known = set(catalog or ()) | allow
        registration_nodes = {id(site.node.args[0]) for site in sites}
        for source in tree:
            if source.rel_path == catalog_rel:
                continue
            for node in ast.walk(source.tree):
                if (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and id(node) not in registration_nodes
                    and _NAME_RE.fullmatch(node.value)
                    and node.value not in known
                ):
                    yield self.finding(
                        source,
                        node,
                        f"string {node.value!r} looks like a metric name but "
                        f"is not in the catalog {catalog_rel}; fix the "
                        "reference, register the metric, or allow-list it "
                        "under [tool.repro-analysis.metric-catalog]",
                    )


def _labels_match(site: MetricSite, entry: CatalogEntry) -> bool:
    labels = site.labels or ()
    if site.has_star:
        # ("relation", *extra): the optional shard-suffix idiom.
        return entry.shard_suffix and labels == entry.labels
    if labels == entry.labels:
        return True
    return entry.shard_suffix and labels == entry.labels + ("shard",)


def _expected_labels_text(entry: CatalogEntry) -> str:
    body = ", ".join(entry.labels)
    if entry.shard_suffix:
        return f"({body}[, shard])"
    return f"({body})"
