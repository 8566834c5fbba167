"""CLI: ``python -m repro.lint [paths...] [options]``.

With no paths, lints ``src/`` and ``tests/`` of the repo root (found by
walking up from the current directory to the nearest ``pyproject.toml``).

Options: ``--select R1,R7`` runs a subset (unknown ids are a usage
error, exit 2 — a typo must not silently select nothing), ``--explain
R7`` prints a rule's full docstring, ``--format text|json|sarif|github``
picks the renderer (``--output`` writes it to a file, SARIF's usual
mode).  A path that does not exist, or is a file but not a ``.py``
file, is a usage error (exit 2).  Exit status 1 if any violation
survives pragmas, else 0.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.lint.engine import run_lint
from repro.lint.output import FORMATS, render
from repro.lint.protocol import ALL_PROGRAM_RULES
from repro.lint.rules import ALL_RULES

KNOWN_RULE_IDS = tuple(
    factory.rule_id for factory in (*ALL_RULES, *ALL_PROGRAM_RULES)
)


def _repo_root() -> Path:
    current = Path.cwd().resolve()
    for candidate in (current, *current.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return current


def _explain(rule_id: str) -> int:
    for factory in (*ALL_RULES, *ALL_PROGRAM_RULES):
        if factory.rule_id == rule_id:
            doc = (factory.__doc__ or "").strip() or "(no documentation)"
            print(f"{rule_id} — {factory.__name__}")
            print(doc)
            return 0
    print(
        f"error: unknown rule id {rule_id!r} "
        f"(known: {', '.join(KNOWN_RULE_IDS)})",
        file=sys.stderr,
    )
    return 2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "repo-specific static analysis: per-file rules R1-R6 plus "
            "the whole-program protocol rule R7"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: src/ and tests/)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--explain",
        metavar="RULE",
        help="print the named rule's full docstring, then exit",
    )
    parser.add_argument(
        "--format",
        choices=sorted(FORMATS),
        default="text",
        help="output renderer (default: text)",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        type=Path,
        help="write rendered output to FILE instead of stdout",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule ids and one-line summaries, then exit",
    )
    options = parser.parse_args(argv)

    if options.list_rules:
        for factory in (*ALL_RULES, *ALL_PROGRAM_RULES):
            doc = (factory.__doc__ or "").strip().splitlines()[0]
            print(f"{factory.rule_id}  {doc}")
        return 0

    if options.explain:
        return _explain(options.explain.strip())

    select = None
    if options.select:
        select = frozenset(
            part.strip() for part in options.select.split(",") if part.strip()
        )
        unknown = sorted(select - set(KNOWN_RULE_IDS))
        if unknown:
            print(
                f"error: unknown rule id(s): {', '.join(unknown)} "
                f"(known: {', '.join(KNOWN_RULE_IDS)})",
                file=sys.stderr,
            )
            return 2

    if options.paths:
        roots = list(options.paths)
    else:
        repo = _repo_root()
        roots = [repo / "src", repo / "tests"]
        roots = [root for root in roots if root.exists()]
    # A non-.py file would lint nothing and exit 0, so it is refused.
    usage_errors = [
        f"error: no such path: {root}"
        if not root.exists()
        else f"error: not a directory or .py file: {root}"
        for root in roots
        if not (root.is_dir() or (root.is_file() and root.suffix == ".py"))
    ]
    for message in usage_errors:
        print(message, file=sys.stderr)
    if usage_errors:
        return 2

    violations = run_lint(roots, select=select)
    rendered = render(options.format, violations)
    if options.output is not None:
        options.output.write_text(
            rendered + ("\n" if rendered else ""), encoding="utf-8"
        )
    elif rendered:
        print(rendered)
    if violations:
        print(f"reprolint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
