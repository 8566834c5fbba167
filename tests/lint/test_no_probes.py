"""No feature-detect probes: the stack's parts are named, not discovered.

Every layer of a built stack names its own parts — a chip and a
multi-channel device answer the same stack protocol (``chips``,
``channels``, ``attach``, ``sync``, ``quiesce``, ``power_loss``), every
backend answers ``attach``, ``free_blocks`` and ``stats`` — so
nothing under ``src/repro`` asks an object whether it has an attribute.
This test lists every ``hasattr(...)`` and every ``getattr(x,
"<literal>", ...)`` under ``src/repro`` and allows none.  A ``getattr``
with a computed name (dataclass field loops) is not a probe.
"""

from __future__ import annotations

import ast

#: (path, call) of the probes allowed to remain, each with its reason.
ALLOWED: set[tuple[str, str]] = set()


def _probes(tree: ast.AST, where: str) -> list[tuple[str, str]]:
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        name = node.func.id
        literal = (
            len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        )
        if name == "hasattr" or (name == "getattr" and literal):
            found.append((where, ast.unparse(node)))
    return found


def test_only_the_allowed_probes_remain(repro_modules):
    found = []
    for module in repro_modules.values():
        found.extend(_probes(module.tree, module.where))
    assert set(found) == ALLOWED, "\n".join(
        f"{where}: {call}" for where, call in sorted(set(found) - ALLOWED)
    )
    assert len(found) == len(ALLOWED)


def test_the_walker_sees_both_probe_shapes():
    sample = ast.parse(
        "hasattr(chip, 'sync')\n"
        "getattr(device, 'chips', None)\n"
        "getattr(stats, field.name)\n"
    )
    calls = [call for _where, call in _probes(sample, "sample.py")]
    assert calls == ["hasattr(chip, 'sync')", "getattr(device, 'chips', None)"]
