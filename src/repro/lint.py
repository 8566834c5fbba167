"""R5 hygiene: the ruff subset this repo gates on, with no installs.

Unused imports (F401), f-strings without placeholders (F541) and
mutable default arguments (B006) — the three codes ``[tool.ruff]``
selects in ``pyproject.toml`` — checked with the stdlib ``ast`` module,
so the gate also runs where ruff is not installed.  The repo's other
invariants (determinism, layering, the metric registry, exception
hygiene, worker seeding) are plain tests under ``tests/lint/``; see
``docs/static_analysis.md``.

``python -m repro.lint [paths...] [--select R5]`` checks the given
files and directories (default: ``src``, ``tests`` and ``benchmarks``
of the repo root).  ``fixtures`` directories below a root are skipped:
they hold violations on purpose.  Exit status 1 if anything is found,
2 for a usage error (a path that is neither a directory nor a ``.py``
file, or a rule id other than ``R5``), else 0.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import Iterable, Iterator

__all__ = ["check", "check_paths", "main"]

RULE = "R5"
SKIP_DIRS = frozenset({"__pycache__", "fixtures"})
MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray"})
MUTABLE_NODES = (
    ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp
)

Finding = tuple[int, int, str]


def _is_mutable(node: ast.expr) -> bool:
    return isinstance(node, MUTABLE_NODES) or (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in MUTABLE_CALLS
    )


def check(tree: ast.Module, init: bool = False) -> list[Finding]:
    """``(line, col, message)`` of every finding in one module, in one
    walk of its tree.

    ``init`` marks an ``__init__.py``: a re-export surface, whose
    imports exist to be imported from it, so F401 does not apply.
    """
    found: list[Finding] = []
    bound: dict[str, Finding] = {}
    # A string constant counts as a use: ``__all__`` entries and string
    # annotations name imports without a Name node.
    used: set[str] = set()
    # A FormattedValue's format spec is itself a JoinedStr
    # (f"{x:.3f}" -> ".3f"), not an f-string of its own.  The walk is
    # breadth-first, so a spec is recorded before it is visited.
    specs: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = (node.lineno, node.col_offset, alias.name)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    origin = f"{node.module or ''}.{alias.name}"
                    bound[alias.asname or alias.name] = (
                        node.lineno, node.col_offset, origin
                    )
        elif isinstance(node, ast.FormattedValue) and node.format_spec:
            specs.add(id(node.format_spec))
        elif isinstance(node, ast.JoinedStr) and id(node) not in specs:
            if not any(isinstance(v, ast.FormattedValue) for v in node.values):
                message = "F541 f-string without placeholders"
                found.append((node.lineno, node.col_offset, message))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defaults = [*node.args.defaults, *node.args.kw_defaults]
            found.extend(
                (
                    default.lineno,
                    default.col_offset,
                    f"B006 mutable default argument in {node.name}() — use "
                    "None and construct inside",
                )
                for default in defaults
                if default is not None and _is_mutable(default)
            )
    if not init:
        found.extend(
            (line, col, f"F401 unused import '{origin}'")
            for name, (line, col, origin) in bound.items()
            if name not in used
        )
    return sorted(found)


def _files(roots: Iterable[Path]) -> Iterator[Path]:
    for root in roots:
        if root.is_file():
            yield root
            continue
        for path in sorted(root.rglob("*.py")):
            # Below the root only: naming a fixtures directory checks it.
            if not SKIP_DIRS.intersection(path.relative_to(root).parts[:-1]):
                yield path


def check_paths(roots: Iterable[Path]) -> list[str]:
    """``path:line:col: R5 message`` for every finding under ``roots``."""
    found: list[str] = []
    for path in _files(roots):
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        except SyntaxError as exc:
            line, message = exc.lineno or 1, f"syntax error: {exc.msg}"
            found.append(f"{path}:{line}:0: {RULE} {message}")
            continue
        init = path.name == "__init__.py"
        found.extend(
            f"{path}:{line}:{col}: {RULE} {message}"
            for line, col, message in check(tree, init)
        )
    return found


def _repo_root() -> Path:
    current = Path.cwd().resolve()
    for candidate in (current, *current.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return current


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="R5 hygiene: unused imports, placeholder-free "
        "f-strings, mutable default arguments",
    )
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="files or directories (default: src, tests, benchmarks and "
        "examples)",
    )
    parser.add_argument(
        "--select", metavar="RULES", default=RULE,
        help="comma-separated rule ids; R5 is the only one",
    )
    options = parser.parse_args(argv)
    selected = {part.strip() for part in options.select.split(",")}
    unknown = sorted(selected - {RULE, ""})
    if unknown:
        print(
            f"error: unknown rule id(s): {', '.join(unknown)} (only {RULE} "
            "is a CLI rule; the others are tests under tests/lint)",
            file=sys.stderr,
        )
        return 2
    if options.paths:
        roots = list(options.paths)
    else:
        repo = _repo_root()
        roots = [
            repo / name for name in ("src", "tests", "benchmarks", "examples")
        ]
        roots = [root for root in roots if root.exists()]
    # A non-.py file would check nothing and exit 0, so it is refused.
    bad = [
        root for root in roots
        if not (root.is_dir() or (root.is_file() and root.suffix == ".py"))
    ]
    for root in bad:
        print(f"error: not a directory or .py file: {root}", file=sys.stderr)
    if bad:
        return 2
    found = check_paths(roots)
    for line in found:
        print(line)
    if found:
        print(f"repro.lint: {len(found)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
