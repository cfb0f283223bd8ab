"""The repository must pass its own static analysis.

This is the test-suite twin of the CI ``analyze`` job: if a change
introduces a finding, this fails locally before CI does.  The generator
idempotency tests guard the checked-in artifacts (the metric catalog and
the state manifest): regenerating them from the current tree must be a
no-op, i.e. the artifacts are in sync with the code.
"""

import shutil
from pathlib import Path

import pytest

from repro.analysis.config import load_config
from repro.analysis.core import SourceTree
from repro.analysis.generate import update_metric_catalog, update_state_manifest
from repro.analysis.runner import run_analysis

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_repo_tree_is_clean():
    report = run_analysis(REPO_ROOT, [REPO_ROOT / "src" / "repro"])
    rendered = "\n".join(f"{f.location()}: {f.code} {f.message}" for f in report.findings)
    assert report.findings == [], f"repo fails its own analysis:\n{rendered}"
    assert report.rules_run == (
        "REP001",
        "REP002",
        "REP003",
        "REP004",
        "REP005",
        "REP006",
        "REP007",
        "REP008",
        "REP011",
    )
    assert report.files_scanned > 50


def test_repo_baseline_is_empty():
    report = run_analysis(REPO_ROOT, [REPO_ROOT / "src" / "repro"])
    assert report.baselined == []
    assert report.stale_baseline == []


@pytest.fixture
def repo_copy(tmp_path):
    """A disposable copy of the source tree, so generators never touch the repo."""
    shutil.copy(REPO_ROOT / "pyproject.toml", tmp_path / "pyproject.toml")
    shutil.copytree(
        REPO_ROOT / "src",
        tmp_path / "src",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    return tmp_path


def test_metric_catalog_is_in_sync(repo_copy):
    config = load_config(repo_copy)
    path = repo_copy / "src/repro/obs/catalog.py"
    before = path.read_text()
    update_metric_catalog(repo_copy, SourceTree.load(repo_copy, [repo_copy / "src"]), config)
    assert path.read_text() == before, (
        "src/repro/obs/catalog.py is stale; regenerate with "
        "`python -m repro.analysis --update-metric-catalog`"
    )


def test_state_manifest_is_in_sync(repo_copy):
    config = load_config(repo_copy)
    path = repo_copy / "src/repro/resilience/state_manifest.py"
    before = path.read_text()
    update_state_manifest(repo_copy, SourceTree.load(repo_copy, [repo_copy / "src"]), config)
    assert path.read_text() == before, (
        "src/repro/resilience/state_manifest.py is stale; regenerate with "
        "`python -m repro.analysis --update-state-manifest`"
    )
