"""Per-rule configuration: shipped defaults + ``pyproject.toml`` overrides.

A rule with options reads one mapping keyed by its kebab-case name.  The
shipped defaults below describe *this* repository (which paths must
stay deterministic, where the metric catalog and checkpoint-state
manifest live); a ``[tool.repro-analysis]`` table in ``pyproject.toml``
can override any of it per project::

    [tool.repro-analysis]
    select = ["REP001", "REP004"]          # run only these rules
    baseline = "analysis-baseline.json"

    [tool.repro-analysis.shard-safety]
    deterministic-paths = ["repro/core", "repro/sharding"]

TOML parsing uses :mod:`tomllib` (Python 3.11+); on 3.10 the shipped
defaults apply and pyproject overrides are ignored (the CI gate runs on
3.12, so the enforced configuration is always the merged one).
"""

from __future__ import annotations

import copy
from pathlib import Path
from typing import Any, Mapping

__all__ = ["DEFAULT_CONFIG", "load_config"]

#: Shipped per-rule defaults (rule name -> option mapping), plus the
#: engine-level keys ``select`` / ``ignore`` / ``baseline``.
DEFAULT_CONFIG: dict[str, Any] = {
    "select": [],  # empty = every registered rule
    "ignore": [],
    "baseline": "analysis-baseline.json",
    "metric-catalog": {
        # Generated catalog module, relative to the project root.
        "catalog": "src/repro/obs/catalog.py",
        # Full metric-name literals that are legitimately not catalogued
        # (e.g. negative fixtures in docs).
        "allow": [],
    },
    "checkpoint-coverage": {
        # Generated state-shape manifest, relative to the project root.
        "manifest": "src/repro/resilience/state_manifest.py",
        # Module whose FORMAT_VERSION must be bumped on state-shape change.
        "format-source": "src/repro/resilience/checkpoint.py",
    },
    "shard-safety": {
        # Library paths that must stay deterministic: no wall-clock time,
        # no unseeded RNG (answer parity across shard replays depends on
        # it).  Matched as prefixes of the project-relative posix path.
        "deterministic-paths": [
            "src/repro/core",
            "src/repro/histograms",
            "src/repro/sampling",
            "src/repro/sharding",
            "src/repro/sketches",
            "src/repro/streams",
            "src/repro/wavelets",
        ],
    },
    "concurrency-discipline": {
        # Modules where a lock-order inversion is reported (the repo's
        # multi-lock modules); inversions entirely outside are ignored.
        "lock-order-modules": [
            "src/repro/fleet/supervisor.py",
            "src/repro/obs/otel/export.py",
            "src/repro/obs/server.py",
        ],
    },
    "async-safety": {
        # Coroutine bodies under these prefixes must not block the loop.
        "paths": ["src/repro"],
    },
    "hot-path": {
        # Batch coefficient-maintenance code: basis tables must come from
        # the repro.fastpath seam (Chebyshev recurrence / compiled
        # kernels), never per-entry trig evaluation.
        "kernel-paths": [
            "src/repro/core/join.py",
            "src/repro/core/range_query.py",
            "src/repro/core/synopsis.py",
            "src/repro/sketches",
            "src/repro/streams",
        ],
        # The blessed kernel implementations themselves, exempt.
        "kernel-seam": ["src/repro/fastpath"],
    },
}


def _merge(base: dict[str, Any], override: Mapping[str, Any]) -> dict[str, Any]:
    merged = dict(base)
    for key, value in override.items():
        if isinstance(value, Mapping) and isinstance(merged.get(key), dict):
            merged[key] = _merge(merged[key], value)
        else:
            merged[key] = value
    return merged


def _load_pyproject_table(root: Path) -> dict[str, Any]:
    pyproject = root / "pyproject.toml"
    if not pyproject.is_file():
        return {}
    try:
        import tomllib
    except ModuleNotFoundError:  # pragma: no cover - Python 3.10 fallback
        return {}
    with pyproject.open("rb") as handle:
        data = tomllib.load(handle)
    table = data.get("tool", {}).get("repro-analysis", {})
    if not isinstance(table, dict):
        raise ValueError("[tool.repro-analysis] must be a table")
    return table


def load_config(root: Path, overrides: Mapping[str, Any] | None = None) -> dict[str, Any]:
    """Defaults, then ``pyproject.toml``, then explicit ``overrides``."""
    config = copy.deepcopy(DEFAULT_CONFIG)
    config = _merge(config, _load_pyproject_table(root))
    if overrides:
        config = _merge(config, overrides)
    return config
