"""Parsed sources shared by the AST tests in this directory.

Every module under ``src/repro`` is parsed once per session; each test
walks the trees it needs.  ``parse_modules`` is the same parser as a
factory, for tests that build a small package under ``tmp_path``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"


@dataclass(frozen=True)
class Module:
    """One parsed module: dotted name, path relative to the source
    root (``repro/bench/parallel.py``) and syntax tree."""

    name: str
    where: str
    tree: ast.Module


def modules_under(src: Path) -> dict[str, Module]:
    """Every module of the ``repro`` package under ``src``, by name."""
    modules = {}
    for path in sorted((src / "repro").rglob("*.py")):
        relative = path.relative_to(src)
        parts = list(relative.with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        name = ".".join(parts)
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        modules[name] = Module(name, relative.as_posix(), tree)
    return modules


@pytest.fixture(scope="session")
def repro_modules() -> dict[str, Module]:
    return modules_under(SRC)


@pytest.fixture(scope="session")
def parse_modules() -> Callable[[Path], dict[str, Module]]:
    return modules_under
