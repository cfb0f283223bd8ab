"""Core data model: findings, parsed source files, suppression scanning.

A :class:`SourceTree` is the unit every rule sees: all files parsed once,
with per-line ``# repro: noqa[CODE]`` suppressions pre-extracted, so the
whole analysis costs one ``ast.parse`` per file regardless of how many
rules run.  A :class:`Finding` is one rule violation at one source
location; its :meth:`Finding.fingerprint` hashes the rule, file, and the
*text* of the offending line (not its number), so baselined findings
survive unrelated edits above them.
"""

from __future__ import annotations

import ast
import hashlib
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

__all__ = [
    "Finding",
    "RETIRED_CODES",
    "RelatedLocation",
    "SourceFile",
    "SourceTree",
    "iter_py_files",
    "project_root_for",
]

#: Inline suppression: ``# repro: noqa`` (all rules) or
#: ``# repro: noqa[REP001]`` / ``# repro: noqa[REP001,REP004]``.
_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?:\[([A-Za-z0-9_,\s-]+)\])?")

#: Retired rule codes and names -> the code of the rule that absorbed them.
#: ``# repro: noqa[...]`` comments and ``select`` / ``ignore`` read it, so
#: a suppression or selection written for the old rule still applies.
RETIRED_CODES: dict[str, str] = {
    "REP009": "REP001",
    "metric-drift": "REP001",
    "REP010": "REP002",
    "checkpoint-completeness": "REP002",
}


@dataclass(frozen=True)
class RelatedLocation:
    """A secondary location a cross-module finding points at.

    The primary location is where the violation must be fixed; related
    locations explain *why* it is a violation (the thread entry point
    that reaches a mutation, the inherited ``state_dict`` that misses an
    attribute, the conflicting lock ordering in another module).
    """

    path: str
    line: int
    note: str

    def location(self) -> str:
        return f"{self.path}:{self.line}"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one primary source location.

    Cross-module rules attach :class:`RelatedLocation` evidence spanning
    other files; the fingerprint stays a function of the primary location
    only, so baselines survive edits to the evidence files.
    """

    code: str
    rule: str
    path: str
    line: int
    col: int
    message: str
    related: tuple[RelatedLocation, ...] = ()

    def fingerprint(self, line_text: str) -> str:
        """Stable identity for baselining: rule + file + offending text."""
        payload = f"{self.code}:{self.path}:{line_text.strip()}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"


class SourceFile:
    """One parsed Python file plus its suppression map."""

    def __init__(self, path: Path, rel_path: str, text: str) -> None:
        self.path = path
        #: Posix-style path relative to the project root (reporting key).
        self.rel_path = rel_path
        self.text = text
        self.lines: list[str] = text.splitlines()
        self.tree: ast.Module = ast.parse(text, filename=str(path))
        #: line number -> suppressed codes (``None`` = every rule).
        self.noqa: dict[int, frozenset[str] | None] = _scan_noqa(self.lines)

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def is_suppressed(self, code: str, lineno: int) -> bool:
        """Whether ``code`` is suppressed by a noqa comment on ``lineno``."""
        codes = self.noqa.get(lineno, frozenset())
        return codes is None or code in (codes or frozenset())

    def finding(
        self,
        code: str,
        rule: str,
        node: ast.AST,
        message: str,
        related: tuple[RelatedLocation, ...] = (),
    ) -> Finding:
        """Build a finding anchored at an AST node of this file."""
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(code, rule, self.rel_path, int(lineno), int(col), message, related)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SourceFile({self.rel_path})"


def _scan_noqa(lines: Sequence[str]) -> dict[int, frozenset[str] | None]:
    out: dict[int, frozenset[str] | None] = {}
    for lineno, line in enumerate(lines, start=1):
        match = _NOQA_RE.search(line)
        if match is None:
            continue
        raw = match.group(1)
        if raw is None:
            out[lineno] = None  # blanket suppression
        else:
            codes = (code.strip().upper() for code in raw.split(",") if code.strip())
            out[lineno] = frozenset(RETIRED_CODES.get(code, code) for code in codes)
    return out


@dataclass
class SourceTree:
    """Every file under analysis, parsed once and shared by all rules."""

    root: Path
    files: list[SourceFile] = field(default_factory=list)

    def by_rel_path(self, rel_path: str) -> SourceFile | None:
        for source in self.files:
            if source.rel_path == rel_path:
                return source
        return None

    def __iter__(self) -> Iterator[SourceFile]:
        return iter(self.files)

    def __len__(self) -> int:
        return len(self.files)

    @classmethod
    def load(cls, root: Path, paths: Sequence[Path]) -> "SourceTree":
        """Parse every ``.py`` file under ``paths`` (syntax errors raise)."""
        tree = cls(root=root)
        for path in iter_py_files(paths):
            try:
                rel = path.resolve().relative_to(root.resolve()).as_posix()
            except ValueError:
                rel = path.as_posix()
            tree.files.append(SourceFile(path, rel, path.read_text(encoding="utf-8")))
        tree.files.sort(key=lambda source: source.rel_path)
        return tree


def iter_py_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Expand files/directories into a deterministic ``.py`` file sequence."""
    seen: set[Path] = set()
    for path in paths:
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            if "__pycache__" in candidate.parts:
                continue
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def project_root_for(path: Path) -> Path:
    """The nearest ancestor holding ``pyproject.toml`` (fallback: the path)."""
    start = path.resolve()
    if start.is_file():
        start = start.parent
    for candidate in (start, *start.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return start
