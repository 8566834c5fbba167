"""File walking, pragma handling and rule orchestration for reprolint.

Two rule layers run over a batch:

* **Per-file rules** (R1-R6, :mod:`repro.lint.rules`) see one AST at a
  time and parallelise trivially — ``run_lint(jobs=N)`` shards files
  across worker processes via :func:`repro.bench.parallel.parallel_map`.
  Linting is a pure function of file bytes (no randomness anywhere, so
  rule R6's seeding contract is satisfied vacuously), which is what
  makes ``jobs=1`` and ``jobs=N`` output-identical.  Rules with
  cross-file state (R3's declared-but-unused direction) expose it via
  ``Rule.state()``; the parent merges worker states with
  ``Rule.absorb()`` before ``finish()`` runs.
* **Program rules** (R7, R9, R10, :mod:`repro.lint.protocol`) need the
  whole batch at once — they run in the parent over the
  :class:`~repro.lint.program.Program` built from the (cached)
  per-module pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lint.program import (  # noqa: F401  (re-exported compat surface)
    PRAGMA_RE,
    ModuleInfo,
    Program,
    load_module,
    module_name_for,
    parse_pragmas,
)
from repro.lint.protocol import ALL_PROGRAM_RULES, ProgramRule
from repro.lint.rules import ALL_RULES, Rule

__all__ = [
    "PRAGMA_RE",
    "ModuleInfo",
    "Program",
    "SKIP_DIRS",
    "Violation",
    "iter_py_files",
    "lint_file",
    "load_module",
    "module_name_for",
    "parse_pragmas",
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


def _file_rules(select: Optional[frozenset[str]] = None) -> List[Rule]:
    rules = [factory() for factory in ALL_RULES]
    if select is not None:
        rules = [rule for rule in rules if rule.rule_id in select]
    return rules


def _program_rules(
    select: Optional[frozenset[str]] = None,
) -> List[ProgramRule]:
    rules = [factory() for factory in ALL_PROGRAM_RULES]
    if select is not None:
        rules = [rule for rule in rules if rule.rule_id in select]
    return rules


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
    """Run the whole-program rules (R7, R9, R10) over the loaded batch."""
    program = Program(list(infos))
    found: List[Violation] = []
    for rule in _program_rules(select):
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


def lint_file(
    path: Path,
    module: Optional[str] = None,
    rules: Optional[List[Rule]] = None,
) -> List[Violation]:
    """Lint one file.  ``module`` overrides derived identity (used by
    the fixture tests to run src-scoped rules on files that live outside
    ``src/repro``).  With the default rule set this also runs the
    program rules over the single-module program, so a fixture exercises
    R7, R9 and R10 exactly as a full batch would."""
    info = load_module(path, module)
    active = [factory() for factory in ALL_RULES] if rules is None else rules
    found = _check_file(info, active)
    if rules is None:
        found.extend(_check_program([info], None))
    return found


#: Worker unit for parallel runs: (path, module override, selected ids).
_LintUnit = Tuple[str, Optional[str], Optional[Tuple[str, ...]]]

#: Raw picklable violation: (path, line, col, rule, message).
_RawViolation = Tuple[str, int, int, str, str]


def _lint_unit(
    unit: _LintUnit,
) -> Tuple[List[_RawViolation], List[Tuple[str, object]]]:
    """Module-level (picklable) per-file worker for ``jobs > 1``."""
    path_str, module, selected = unit
    select = frozenset(selected) if selected is not None else None
    rules = _file_rules(select)
    info = load_module(Path(path_str), module)
    violations = [
        (v.path, v.line, v.col, v.rule, v.message)
        for v in _check_file(info, rules)
    ]
    states = [(rule.rule_id, rule.state()) for rule in rules]
    return violations, states


def run_lint(
    paths: List[Path],
    select: Optional[frozenset[str]] = None,
    module_overrides: Optional[Dict[Path, str]] = None,
    jobs: int = 1,
) -> List[Violation]:
    """Lint every file under ``paths``; returns sorted violations.

    ``jobs > 1`` shards the per-file pass across worker processes (the
    program rules still run in the parent, over the cached module pass);
    output is identical to a serial run because linting is a pure
    function of file bytes and results merge in submission order.
    """
    overrides = module_overrides or {}
    files = iter_py_files(paths)
    rules = _file_rules(select)
    found: List[Violation] = []
    if jobs == 1:
        infos = []
        for path in files:
            info = load_module(path, overrides.get(path))
            infos.append(info)
            found.extend(_check_file(info, rules))
    else:
        from repro.bench.parallel import parallel_map

        selected = tuple(sorted(select)) if select is not None else None
        units: List[_LintUnit] = [
            (str(path), overrides.get(path), selected) for path in files
        ]
        results = parallel_map(
            _lint_unit, units, jobs=jobs, labels=[str(p) for p in files]
        )
        by_id = {rule.rule_id: rule for rule in rules}
        for raw_violations, states in results:
            for path_str, line, col, rule_id, message in raw_violations:
                found.append(Violation(path_str, line, col, rule_id, message))
            for rule_id, state in states:
                by_id[rule_id].absorb(state)
        infos = [load_module(path, overrides.get(path)) for path in files]
    for rule in rules:
        for path_str, line, col, message in rule.finish():
            found.append(Violation(path_str, line, col, rule.rule_id, message))
    found.extend(_check_program(infos, select))
    return sorted(found)
