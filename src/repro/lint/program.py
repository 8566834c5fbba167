"""Whole-program view for reprolint.

The per-file rules (R1-R6) see one AST at a time.  The protocol rule
(R7, :mod:`repro.lint.protocol`) needs the *program*: every class and
function of the batch, so it can follow same-class calls and order
events across a function body.  This module parses each file once into
a :class:`ModuleInfo` (AST + pragma map) and wraps the batch in a
:class:`Program`.

Identity: a file's dotted module name normally derives from its
``src/repro/...`` path.  A ``# reprolint: module=repro.x.y`` directive
in the first few lines overrides it — lint fixtures use this to opt
into module-scoped program rules while living outside ``src/repro``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = [
    "FunctionInfo",
    "ModuleInfo",
    "Program",
    "attr_chain",
    "call_target",
    "load_module",
    "module_name_for",
    "parse_pragmas",
]

#: ``# reprolint: allow[R1]`` or ``allow[R1,R3]`` — suppresses the named
#: rules on the comment's own line and on the line below it (so the
#: pragma can sit above a long statement).
PRAGMA_RE = re.compile(r"#\s*reprolint:\s*allow\[([A-Z0-9,\s]+)\]")

#: ``# reprolint: module=repro.service.x`` — module-identity override,
#: honoured only within the first few lines of the file.
MODULE_DIRECTIVE_RE = re.compile(r"#\s*reprolint:\s*module=([A-Za-z0-9_.]+)")
_DIRECTIVE_SCAN_LINES = 5


def parse_pragmas(source: str) -> dict[int, frozenset[str]]:
    """Map line number -> rule ids suppressed on that line."""
    allow: dict[int, frozenset[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = PRAGMA_RE.search(text)
        if match is None:
            continue
        rules = frozenset(
            part.strip() for part in match.group(1).split(",") if part.strip()
        )
        for target in (lineno, lineno + 1):
            allow[target] = allow.get(target, frozenset()) | rules
    return allow


def module_directive(source: str) -> Optional[str]:
    """The ``# reprolint: module=...`` override, if present near the top."""
    for text in source.splitlines()[:_DIRECTIVE_SCAN_LINES]:
        match = MODULE_DIRECTIVE_RE.search(text)
        if match is not None:
            return match.group(1)
    return None


def module_name_for(path: Path) -> str | None:
    """Derive the dotted module name from a ``src/repro/...`` path.

    Files inside a ``fixtures`` directory get a pseudo-identity of
    ``repro.<stem>`` so that explicitly linting the fixture tree (the
    default walk skips it) exercises the src-scoped rules.  A
    ``# reprolint: module=`` directive (see :func:`load_module`)
    overrides both.
    """
    parts = path.resolve().with_suffix("").parts
    for index in range(len(parts) - 1):
        if parts[index] == "src" and parts[index + 1] == "repro":
            mod_parts = list(parts[index + 1 :])
            if mod_parts[-1] == "__init__":
                mod_parts.pop()
            return ".".join(mod_parts)
    if "fixtures" in parts:
        return f"repro.{path.stem}"
    return None


# --------------------------------------------------------------------- #
# Expression helpers shared by the protocol rules
# --------------------------------------------------------------------- #


def attr_chain(node: ast.expr) -> Optional[List[str]]:
    """Component list of a name-rooted access chain, or ``None``.

    ``self.shards[i].admission.offer`` -> ``["self", "shards",
    "admission", "offer"]`` — subscripts and call parentheses vanish, so
    two spellings of the same logical path compare equal.  Chains rooted
    in anything but a plain name (a literal, a call result used inline)
    yield ``None``.
    """
    parts: List[str] = []
    while True:
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Call):
            node = node.func
        elif isinstance(node, ast.Name):
            parts.append(node.id)
            parts.reverse()
            return parts
        else:
            return None


def call_target(node: ast.Call) -> Optional[str]:
    """The called name: final attribute of the chain, or the bare name."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


# --------------------------------------------------------------------- #
# Per-module pass
# --------------------------------------------------------------------- #


@dataclass
class FunctionInfo:
    """One function or method, with enough context to report findings."""

    module: "ModuleInfo"
    qualname: str
    node: "ast.FunctionDef | ast.AsyncFunctionDef"


@dataclass
class ModuleInfo:
    """Everything the analyses need to know about one parsed file."""

    path: Path
    module: Optional[str]
    tree: Optional[ast.Module]
    #: ``(line, col, message)`` when the file failed to parse.
    error: Optional[Tuple[int, int, str]] = None
    allow: Dict[int, frozenset[str]] = field(default_factory=dict)

    def classes(self) -> Iterator[ast.ClassDef]:
        if self.tree is None:
            return
        for node in self.tree.body:
            if isinstance(node, ast.ClassDef):
                yield node

    def functions(self) -> Iterator[FunctionInfo]:
        """Module-level functions and class methods (nested defs are the
        enclosing function's business — the rules walk bodies)."""
        if self.tree is None:
            return
        prefix = self.module or self.path.stem
        for node in self.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield FunctionInfo(self, f"{prefix}:{node.name}", node)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield FunctionInfo(
                            self, f"{prefix}:{node.name}.{item.name}", item
                        )


def load_module(path: Path, module: Optional[str] = None) -> ModuleInfo:
    """Parse one file into its analysis record.

    ``module`` overrides the derived identity; without it, a
    ``# reprolint: module=...`` directive wins over the path-derived
    name.
    """
    source = path.read_text(encoding="utf-8")
    if module is None:
        module = module_directive(source) or module_name_for(path)
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return ModuleInfo(
            path=path,
            module=module,
            tree=None,
            error=(exc.lineno or 1, exc.offset or 0, f"syntax error: {exc.msg}"),
        )
    return ModuleInfo(
        path=path, module=module, tree=tree, allow=parse_pragmas(source)
    )


# --------------------------------------------------------------------- #
# The program view
# --------------------------------------------------------------------- #


class Program:
    """The whole-program view the protocol rules run against: every
    parse-clean module in the lint batch."""

    def __init__(self, modules: List[ModuleInfo]) -> None:
        self.modules = [m for m in modules if m.tree is not None]

    def functions(self) -> Iterator[FunctionInfo]:
        for module in self.modules:
            yield from module.functions()

    def classes(self) -> Iterator[Tuple[ModuleInfo, ast.ClassDef]]:
        for module in self.modules:
            for node in module.classes():
                yield module, node
