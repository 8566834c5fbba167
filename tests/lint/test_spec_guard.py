"""Spec models, not frozen parents.

A fast body is proven against a naive model of its concept in
``tests/reference/``, never against a copy of the body it replaced: no
module under ``tests/`` defines a ``Parent*`` class or a ``parent_*``
function.  A model states behaviour through public names, so no module
under ``tests/reference/`` imports a ``_``-prefixed name from ``repro``.
"""

from __future__ import annotations

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parents[1]
#: Name prefixes of a frozen earlier body.
CLASS_PREFIX, FUNCTION_PREFIX = "Parent", "parent_"


def _violations(path: Path, root: Path = TESTS) -> list[str]:
    where = path.relative_to(root).as_posix()
    reference = where.startswith("reference/")
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ClassDef) and node.name.startswith(CLASS_PREFIX):
            found.append(f"{where}: class {node.name}")
        elif isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)
        ) and node.name.startswith(FUNCTION_PREFIX):
            found.append(f"{where}: def {node.name}")
        elif reference and isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module == "repro" or module.startswith("repro."):
                found += [
                    f"{where}: from {module} import {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    return found


def test_no_frozen_parents_and_no_private_imports_in_the_specs():
    found = []
    for path in sorted(TESTS.rglob("*.py")):
        found.extend(_violations(path))
    assert found == [], "\n".join(found)


def test_the_walker_sees_every_shape(tmp_path):
    (tmp_path / "reference").mkdir()
    sample = tmp_path / "reference" / "sample.py"
    sample.write_text(
        "from repro.ftl.page_mapping import PageMappingFtl, _helper\n"
        "from tests.reference import _local\n"
        f"class {CLASS_PREFIX}Tracker:\n"
        f"    def {FUNCTION_PREFIX}fetch(self): ...\n"
        "def ref_fetch(): ...\n"
    )
    assert _violations(sample, tmp_path) == [
        "reference/sample.py: from repro.ftl.page_mapping import _helper",
        f"reference/sample.py: class {CLASS_PREFIX}Tracker",
        f"reference/sample.py: def {FUNCTION_PREFIX}fetch",
    ]
    elsewhere = tmp_path / "test_sample.py"
    elsewhere.write_text("from repro.workloads.ycsb import _value\n")
    assert _violations(elsewhere, tmp_path) == []
