"""The analysis driver: load, run rules, partition, report.

:func:`run_analysis` is the one entry point shared by the CLI, the test
suite, and the self-check test: parse every file once, run the selected
rules over the shared :class:`~repro.analysis.core.SourceTree`, then
partition raw findings into *reported* (fail the run), *suppressed*
(inline ``# repro: noqa``), and *baselined* (recorded in the baseline
file).  Output ordering is deterministic — findings sort by path, line,
column, code — so golden-file tests and CI diffs are stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

from .baseline import Baseline
from .config import load_config
from .core import RETIRED_CODES, Finding, SourceTree
from .rules import ALL_RULES, Rule

__all__ = ["AnalysisReport", "run_analysis", "select_rules"]


@dataclass
class AnalysisReport:
    """Everything a reporter needs, pre-sorted and pre-partitioned."""

    findings: list[Finding] = field(default_factory=list)
    #: Parallel to ``findings`` (same order, same length).
    fingerprints: list[str] = field(default_factory=list)
    suppressed: int = 0
    baselined: list[tuple[Finding, str]] = field(default_factory=list)
    stale_baseline: list[str] = field(default_factory=list)
    files_scanned: int = 0
    rules_run: tuple[str, ...] = ()
    rule_descriptions: list[dict[str, str]] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0


def select_rules(
    config: Mapping[str, Any], rules: Sequence[Rule] | None = None
) -> list[Rule]:
    """Apply the ``select`` / ``ignore`` lists (codes or kebab-case names).

    A retired code or name selects or ignores the rule that absorbed it.
    """
    if rules is None:
        rules = ALL_RULES
    select = _rule_keys(config.get("select", []))
    ignore = _rule_keys(config.get("ignore", []))
    chosen: list[Rule] = []
    for rule in rules:
        keys = {rule.code, rule.name}
        if select and not (keys & select):
            continue
        if keys & ignore:
            continue
        chosen.append(rule)
    return chosen


def _rule_keys(values: Sequence[Any]) -> set[str]:
    """Codes and names, in either case, with retired ones mapped forward."""
    keys: set[str] = set()
    for value in values:
        for key in (str(value).upper(), str(value).lower()):
            keys.add(RETIRED_CODES.get(key, key))
    return keys


def run_analysis(
    root: Path,
    paths: Sequence[Path] | None = None,
    *,
    overrides: Mapping[str, Any] | None = None,
    rules: Sequence[Rule] | None = None,
    baseline_path: Path | None = None,
) -> AnalysisReport:
    """Run the selected rules over ``paths`` (default: ``<root>/src``)."""
    config = load_config(root, overrides)
    tree = SourceTree.load(root, list(paths) if paths else [root / "src"])
    active = select_rules(config, rules)

    raw: list[Finding] = []
    for rule in active:
        raw.extend(rule.check(tree, config))
    raw.sort(key=lambda f: (f.path, f.line, f.col, f.code, f.message))

    if baseline_path is None:
        baseline_path = root / str(config.get("baseline", "analysis-baseline.json"))
    baseline = Baseline.load(baseline_path)

    report = AnalysisReport(
        files_scanned=len(tree),
        rules_run=tuple(rule.code for rule in active),
        rule_descriptions=[
            {"id": rule.code, "name": rule.name, "description": rule.description}
            for rule in active
        ],
    )
    live_fingerprints: list[str] = []
    for finding in raw:
        source = tree.by_rel_path(finding.path)
        if source is not None and source.is_suppressed(finding.code, finding.line):
            report.suppressed += 1
            continue
        line_text = source.line_text(finding.line) if source is not None else ""
        fingerprint = finding.fingerprint(line_text)
        live_fingerprints.append(fingerprint)
        if fingerprint in baseline:
            report.baselined.append((finding, fingerprint))
        else:
            report.findings.append(finding)
            report.fingerprints.append(fingerprint)
    report.stale_baseline = baseline.stale_fingerprints(live_fingerprints)
    return report
