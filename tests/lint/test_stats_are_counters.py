"""Every stats block is a ``Counters``.

A run is measured with one ``snapshot()`` before it and one ``diff()``
after it (``repro.flash.stats.Counters``), for every stats block of the
stack.  A stats dataclass that does not subclass ``Counters`` would need
its own before/after code in every harness that reads it, so this test
lists every dataclass named ``*Stats`` under ``src/repro`` and allows
none outside ``Counters``.
"""

from __future__ import annotations

import ast


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(
            target, "id", None
        )
        if name == "dataclass":
            return True
    return False


def _base_names(node: ast.ClassDef) -> set[str]:
    return {
        base.attr if isinstance(base, ast.Attribute) else base.id
        for base in node.bases
        if isinstance(base, (ast.Attribute, ast.Name))
    }


def stats_classes(tree: ast.AST) -> dict[str, bool]:
    """``{name: subclasses Counters}`` of each ``*Stats`` dataclass."""
    return {
        node.name: "Counters" in _base_names(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and node.name.endswith("Stats")
        and _is_dataclass(node)
    }


def test_every_stats_dataclass_is_a_counters(repro_modules):
    found = {}
    for module in repro_modules.values():
        for name, ok in stats_classes(module.tree).items():
            found[f"{module.where}:{name}"] = ok
    assert len(found) >= 6, sorted(found)
    assert all(found.values()), sorted(k for k, ok in found.items() if not ok)


def test_the_walker_tells_the_two_apart():
    sample = ast.parse(
        "@dataclass\nclass AStats(Counters): pass\n"
        "@dataclasses.dataclass(frozen=True)\nclass BStats: pass\n"
        "class CStats: pass\n"
        "@dataclass\nclass Plain: pass\n"
    )
    assert stats_classes(sample) == {"AStats": True, "BStats": False}
