"""Nothing below ``repro.bench`` imports it.

``repro.bench`` runs the paper's experiments on top of everything else,
so any package it imports — directly or through another package — is
below it, and an import back up into ``repro.bench`` from there is a
cycle in the layer map.  This test reads every module's imports with
the stdlib ``ast`` module: imports inside functions count (they run
all the same); imports under ``if TYPE_CHECKING:`` do not (they never
run).  Packages are ``repro.<name>``; a top-level module such as
``repro.stack`` is its own package.
"""

from __future__ import annotations

import ast

TOP = "repro.bench"


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _imports(tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, module)`` of every import that runs, at any depth."""
    found: list[tuple[int, str]] = []

    def visit(node: ast.AST) -> None:
        if isinstance(node, ast.If) and _is_type_checking(node.test):
            for child in node.orelse:
                visit(child)
            return
        if isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module == "repro":
            # ``from repro import bench`` imports the subpackage.
            found.extend((node.lineno, f"repro.{a.name}") for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.append((node.lineno, node.module))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return found


def _package(module: str) -> str | None:
    """``repro.<name>`` of a ``repro`` module, None outside ``repro``."""
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return None
    return ".".join(parts[:2])


def upward_imports(modules) -> list[str]:
    """``module:line -> target`` for each import of ``repro.bench`` from
    a package ``repro.bench`` depends on (``modules`` as parsed by
    ``conftest.modules_under``)."""
    imports = {name: _imports(module.tree) for name, module in modules.items()}
    edges: dict[str, set[str]] = {}
    for module, found in imports.items():
        package = _package(module)
        if package is None:
            continue
        targets = edges.setdefault(package, set())
        targets.update(
            p for _line, target in found
            if (p := _package(target)) is not None and p != package
        )
    below: set[str] = set()
    frontier = [TOP]
    while frontier:
        for package in edges.get(frontier.pop(), ()):
            if package not in below and package != TOP:
                below.add(package)
                frontier.append(package)
    return sorted(
        f"{module}:{line} -> {target}"
        for module, found in imports.items()
        if _package(module) in below
        for line, target in found
        if target == TOP or target.startswith(TOP + ".")
    )


def test_nothing_below_bench_imports_it(repro_modules):
    violations = upward_imports(repro_modules)
    assert not violations, "\n".join(violations)


def test_the_walker_sees_a_function_local_import(tmp_path, parse_modules):
    def write(relative: str, text: str) -> None:
        path = tmp_path / "repro" / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)

    write("__init__.py", "")
    write("bench/__init__.py", "from repro.low import helper\n")
    write("bench/report.py", "def table():\n    return ''\n")
    write(
        "low/__init__.py",
        "from typing import TYPE_CHECKING\n"
        "from repro.lower import base\n"
        "if TYPE_CHECKING:\n"
        "    from repro.bench.report import table\n"
        "def helper():\n"
        "    return base()\n",
    )
    write(
        "lower/__init__.py",
        "def base():\n"
        "    from repro.bench.report import table\n"
        "    return table()\n",
    )
    write("unrelated.py", "import repro.bench\n")
    found = upward_imports(parse_modules(tmp_path))
    assert found == ["repro.lower:2 -> repro.bench.report"]
