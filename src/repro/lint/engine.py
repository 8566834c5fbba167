"""File walking, pragma handling and rule orchestration for reprolint.

Two rule layers run over a batch, in one process:

* **Per-file rules** (R1-R6, :mod:`repro.lint.rules`) see one AST at a
  time.  R3 also keeps cross-file state (the declared-but-unused
  direction), reported by ``Rule.finish()`` after the batch.
* **Program rules** (R7, :mod:`repro.lint.protocol`) need the whole
  batch at once and run over the :class:`~repro.lint.program.Program`
  built from the same parsed modules.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, List, Optional, Sequence

from repro.lint.program import ModuleInfo, Program, load_module
from repro.lint.protocol import ALL_PROGRAM_RULES
from repro.lint.rules import ALL_RULES, Rule

__all__ = [
    "SKIP_DIRS",
    "Violation",
    "iter_py_files",
    "lint_file",
    "run_lint",
]

#: Directories never scanned: caches, and the lint test fixtures (which
#: contain violations on purpose).
SKIP_DIRS = {"__pycache__", ".git", "fixtures", ".venv", "build", "dist"}


@dataclass(frozen=True, order=True)
class Violation:
    """One finding: ``path:line:col: RULE message``."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def iter_py_files(roots: List[Path]) -> List[Path]:
    """All ``.py`` files under the roots, skipping caches and fixtures."""
    found: List[Path] = []
    for root in roots:
        if root.is_file() and root.suffix == ".py":
            found.append(root)
            continue
        for path in sorted(root.rglob("*.py")):
            # Skip-dirs apply below the root only, so explicitly
            # pointing the CLI at a fixtures directory still works.
            relative = path.relative_to(root)
            if SKIP_DIRS.intersection(relative.parts[:-1]):
                continue
            found.append(path)
    return found


def _selected(
    factories: Sequence[Any], select: Optional[frozenset[str]]
) -> List[Any]:
    """Fresh instances of the rules ``select`` names (all when None)."""
    return [
        factory()
        for factory in factories
        if select is None or factory.rule_id in select
    ]


def _check_file(info: ModuleInfo, rules: List[Rule]) -> List[Violation]:
    """Run the per-file rules over one loaded module."""
    if info.error is not None:
        line, col, message = info.error
        return [
            Violation(
                path=str(info.path), line=line, col=col,
                rule="PARSE", message=message,
            )
        ]
    assert info.tree is not None
    found: List[Violation] = []
    for rule in rules:
        if not rule.applies(info.module, info.path):
            continue
        for line, col, message in rule.check(info.tree, info.path, info.module):
            if rule.rule_id in info.allow.get(line, frozenset()):
                continue
            found.append(
                Violation(
                    path=str(info.path),
                    line=line,
                    col=col,
                    rule=rule.rule_id,
                    message=message,
                )
            )
    return found


def _check_program(
    infos: Sequence[ModuleInfo], select: Optional[frozenset[str]]
) -> List[Violation]:
    """Run the whole-program rules (R7) over the loaded batch."""
    program = Program(list(infos))
    found: List[Violation] = []
    for rule in _selected(ALL_PROGRAM_RULES, select):
        for mi, line, col, message in rule.check_program(program):
            if rule.rule_id in mi.allow.get(line, frozenset()):
                continue
            found.append(
                Violation(
                    path=str(mi.path),
                    line=line,
                    col=col,
                    rule=rule.rule_id,
                    message=message,
                )
            )
    return found


def lint_file(path: Path, module: Optional[str] = None) -> List[Violation]:
    """Lint one file with every rule.  ``module`` overrides derived
    identity (used by the fixture tests to run src-scoped rules on files
    that live outside ``src/repro``).  The program rules run over the
    single-module program, so a fixture exercises R7 exactly as a full
    batch would."""
    info = load_module(path, module)
    found = _check_file(info, _selected(ALL_RULES, None))
    return found + _check_program([info], None)


def run_lint(
    paths: List[Path], select: Optional[frozenset[str]] = None
) -> List[Violation]:
    """Lint every file under ``paths``; returns sorted violations."""
    rules: List[Rule] = _selected(ALL_RULES, select)
    infos = [load_module(path) for path in iter_py_files(paths)]
    found: List[Violation] = []
    for info in infos:
        found.extend(_check_file(info, rules))
    for rule in rules:
        for path_str, line, col, message in rule.finish():
            found.append(Violation(path_str, line, col, rule.rule_id, message))
    found.extend(_check_program(infos, select))
    return sorted(found)
