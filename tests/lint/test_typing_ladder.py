"""The mypy strictness ladder's rung-2 bar, enforced with stdlib ast.

``pyproject.toml`` pins ``disallow_untyped_defs`` for the rung-2
packages, but mypy is an optional install — CI has it, a bare checkout
may not.  This test re-states the annotation-completeness half of that
bar (every parameter and every return annotated) with an AST walk, so
the ladder cannot silently rot where mypy is absent.  Type *correctness*
is still mypy's job; this guards only the coverage invariant.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[2] / "pyproject.toml"

#: The rung-2 packages this test enforces (``repro.lint`` is a single
#: module).  ``repro.obs``, ``repro.fault`` and ``repro.service`` are also
#: on rung 2 in pyproject but predate the AST gate and still carry
#: unannotated defs; they join this list as they are cleaned up.
RUNG2 = ["lint", "bench"]


def _unannotated_defs(tree: ast.AST, where: str) -> list[str]:
    problems: list[str] = []

    class Visitor(ast.NodeVisitor):
        def _check(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
            args = [
                *node.args.posonlyargs,
                *node.args.args,
                *node.args.kwonlyargs,
            ]
            # self/cls by position: mypy does not require annotating the
            # first parameter of a method, and the AST cannot see
            # decorator semantics, so skip any first param so named.
            missing = [
                a.arg
                for a in args
                if a.annotation is None and a.arg not in ("self", "cls")
            ]
            if node.args.vararg and node.args.vararg.annotation is None:
                missing.append("*" + node.args.vararg.arg)
            if node.args.kwarg and node.args.kwarg.annotation is None:
                missing.append("**" + node.args.kwarg.arg)
            if node.returns is None:
                missing.append("return")
            if missing:
                problems.append(
                    f"{where}:{node.lineno} "
                    f"{node.name}({', '.join(missing)})"
                )
            self.generic_visit(node)

        def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
            self._check(node)

        def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
            self._check(node)

    Visitor().visit(tree)
    return problems


def _members(modules, package: str) -> list:
    name = f"repro.{package}"
    return [
        module for module in modules.values()
        if module.name == name or module.name.startswith(name + ".")
    ]


@pytest.mark.parametrize("package", RUNG2)
def test_rung2_packages_are_fully_annotated(package, repro_modules):
    members = _members(repro_modules, package)
    assert members, f"rung-2 package vanished: {package}"
    problems: list[str] = []
    for module in members:
        problems.extend(_unannotated_defs(module.tree, module.where))
    assert problems == [], "\n".join(problems)


def test_rung2_list_matches_pyproject(repro_modules):
    config = PYPROJECT.read_text()
    for package in RUNG2:
        # A package's override is ``repro.x.*``; a module's is ``repro.x``.
        members = _members(repro_modules, package)
        is_package = any(m.where.endswith("/__init__.py") for m in members)
        override = f"repro.{package}" + (".*" if is_package else "")
        assert f'"{override}"' in config, (
            f"{override} is enforced here but missing from the "
            "pyproject mypy overrides"
        )
