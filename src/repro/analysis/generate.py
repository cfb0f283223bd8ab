"""Generators for the two checked-in artifacts the rules compare against.

``--update-metric-catalog`` scans every ``repro_*`` registration site and
rewrites :mod:`repro.obs.catalog`; ``--update-state-manifest`` scans
every checkpoint-protocol class and rewrites
:mod:`repro.resilience.state_manifest`.  Both outputs are plain literal
assignments so the rules can ``ast.literal_eval`` them without importing
the package under analysis.

The manifest generator enforces the version-bump contract: if an
*existing* class's serialized shape changed but ``FORMAT_VERSION`` in
``checkpoint.py`` was not bumped since the manifest was generated, it
refuses to regenerate — old checkpoints would otherwise be restored into
a layout they were never written for.  Adding or removing whole classes
is free; only same-class shape drift demands a bump.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Any, Mapping

from .core import SourceTree
from .graph import ProjectGraph
from .rules.checkpoints import (
    CheckpointCoverageRule,
    load_format_version,
    load_manifest,
    manifest_entries,
)
from .rules.metrics import MetricCatalogRule, scan_metric_sites

__all__ = ["GenerationError", "update_metric_catalog", "update_state_manifest"]

_HEADER = '''"""{title}

Generated by ``python -m repro.analysis {flag}`` — do not edit by hand.
{extra}"""
'''


#: Longest generated line, matching the lint gate.
_MAX_COLUMNS = 100


class GenerationError(RuntimeError):
    """Regeneration refused or impossible; message explains why."""


def update_metric_catalog(
    root: Path, tree: SourceTree, config: Mapping[str, Any]
) -> Path:
    """Rewrite the metric catalog from the current registration sites."""
    options = MetricCatalogRule().options(config)
    catalog_rel = str(options.get("catalog", "src/repro/obs/catalog.py"))
    sites = scan_metric_sites(tree)

    catalog: dict[str, dict[str, Any]] = {}
    for site in sites:
        if site.labels is None:
            raise GenerationError(
                f"{site.source.rel_path}:{site.node.lineno}: metric "
                f"{site.name!r} has non-literal labelnames; make them a "
                "literal tuple so the catalog can be generated"
            )
        entry = catalog.get(site.name)
        record = {
            "kind": site.kind,
            "labels": site.labels,
            "shard_suffix": site.has_star,
            "help": site.help,
        }
        if entry is None:
            catalog[site.name] = record
            continue
        if entry["kind"] != site.kind or entry["labels"] != site.labels:
            raise GenerationError(
                f"metric {site.name!r} is registered with conflicting "
                f"shapes ({entry['kind']}{entry['labels']} vs "
                f"{site.kind}{site.labels}); unify the registration sites "
                "before regenerating the catalog"
            )
        entry["shard_suffix"] = bool(entry["shard_suffix"]) or site.has_star
        if not entry["help"]:
            entry["help"] = site.help

    lines = [
        _HEADER.format(
            title="Metric catalog: every repro_* metric this package may register.",
            flag="--update-metric-catalog",
            extra=(
                "\nREP001 (metric-catalog) checks every registration site against\n"
                "this table so sharded registries stay mergeable.  Entries with\n"
                "``shard_suffix`` accept an optional trailing ``shard`` label.\n"
            ),
        ),
        "",
        "METRIC_CATALOG = {",
    ]
    for name in sorted(catalog):
        entry = catalog[name]
        lines.append(f"    {name!r}: {{")
        lines.append(f"        \"kind\": {entry['kind']!r},")
        lines.append(f"        \"labels\": {_tuple_literal(entry['labels'])},")
        lines.append(f"        \"shard_suffix\": {entry['shard_suffix']!r},")
        lines.extend(_help_lines(entry["help"]))
        lines.append("    },")
    lines.append("}")
    path = root / catalog_rel
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def update_state_manifest(
    root: Path, tree: SourceTree, config: Mapping[str, Any]
) -> Path:
    """Rewrite the checkpoint state-shape manifest, enforcing version bumps."""
    options = CheckpointCoverageRule().options(config)
    manifest_rel = str(options.get("manifest", "src/repro/resilience/state_manifest.py"))
    format_rel = str(options.get("format-source", "src/repro/resilience/checkpoint.py"))

    current_version = load_format_version(root / format_rel)
    if current_version is None:
        raise GenerationError(
            f"cannot read FORMAT_VERSION from {format_rel}; the manifest "
            "records the checkpoint format it was generated at"
        )
    entries = {
        key: shape for key, (_, shape) in manifest_entries(ProjectGraph.for_tree(tree)).items()
    }

    existing = load_manifest(root / manifest_rel)
    if existing is not None:
        recorded_version, recorded = existing
        changed = sorted(
            key
            for key, shape in entries.items()
            if key in recorded and recorded[key] != shape
        )
        if changed and recorded_version == current_version:
            detail = ", ".join(changed)
            raise GenerationError(
                f"state shape changed for {detail} but FORMAT_VERSION in "
                f"{format_rel} is still {current_version}; bump it before "
                "regenerating the manifest (old checkpoints must not be "
                "restored into a new layout)"
            )

    lines = [
        _HEADER.format(
            title="Checkpoint state-shape manifest.",
            flag="--update-state-manifest",
            extra=(
                "\nMaps ``<file>::<Class>`` to the sorted attributes its\n"
                "``state_dict`` serializes.  REP002 (checkpoint-coverage) fails\n"
                "when a class's shape drifts from this record, and regeneration\n"
                "refuses to proceed until ``FORMAT_VERSION`` in ``checkpoint.py``\n"
                "is bumped.\n"
            ),
        ),
        "",
        f"FORMAT_VERSION = {current_version}",
        "",
        "STATE_MANIFEST = {",
    ]
    for key in sorted(entries):
        lines.append(f"    {key!r}: [")
        for attr in entries[key]:
            lines.append(f"        {attr!r},")
        lines.append("    ],")
    lines.append("}")
    path = root / manifest_rel
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _help_lines(text: str) -> list[str]:
    """The ``"help"`` entry, as implicitly concatenated pieces when too long."""
    line = f"        \"help\": {text!r},"
    if len(line) <= _MAX_COLUMNS:
        return [line]
    indent = " " * 12
    pieces: list[str] = []
    for word in re.findall(r"\s*\S+\s*", text):
        if pieces and len(indent + repr(pieces[-1] + word)) <= _MAX_COLUMNS:
            pieces[-1] += word
        else:
            pieces.append(word)
    return ['        "help": (', *(indent + repr(piece) for piece in pieces), "        ),"]


def _tuple_literal(labels: tuple[str, ...]) -> str:
    if not labels:
        return "()"
    body = ", ".join(repr(label) for label in labels)
    return "(" + body + ("," if len(labels) == 1 else "") + ")"
