"""Whole-program analysis core for reprolint.

The per-file rules (R1-R6) see one AST at a time.  The protocol rules
(R7, R9, R10, :mod:`repro.lint.protocol`) need the *program*: which
module imports which, which class defines which methods, which function
calls what.  This module provides that view — a cached per-module pass
(AST + symbol table + pragma map) feeding an import graph and an
approximate name-based call graph.

The module cache is keyed by ``(st_size, st_mtime_ns)``: repeated lint
runs inside one process (the test suite, editor integrations, a
``--jobs`` parent re-reading files the workers already linted) re-parse
only files that actually changed on disk.

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
    "clear_cache",
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


def _import_origins(tree: ast.AST) -> Dict[str, str]:
    """Local binding -> dotted origin for every import in the module."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                aliases[bound] = alias.name if alias.asname else bound
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                aliases[bound] = f"{node.module}.{alias.name}"
    return aliases


# --------------------------------------------------------------------- #
# Per-module pass
# --------------------------------------------------------------------- #


@dataclass
class FunctionInfo:
    """One function or method, with enough context to report findings."""

    module: "ModuleInfo"
    qualname: str
    name: str
    node: "ast.FunctionDef | ast.AsyncFunctionDef"
    class_name: Optional[str] = None


@dataclass
class ModuleInfo:
    """Everything the analyses need to know about one parsed file."""

    path: Path
    module: Optional[str]
    source: str
    tree: Optional[ast.Module]
    #: ``(line, col, message)`` when the file failed to parse.
    error: Optional[Tuple[int, int, str]] = None
    allow: Dict[int, frozenset[str]] = field(default_factory=dict)
    #: Dotted origins of everything this module imports.
    imports: frozenset[str] = frozenset()

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
                yield FunctionInfo(
                    self, f"{prefix}:{node.name}", node.name, node
                )
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield FunctionInfo(
                            self,
                            f"{prefix}:{node.name}.{item.name}",
                            item.name,
                            item,
                            class_name=node.name,
                        )


#: path -> ((st_size, st_mtime_ns), info).  Keyed on the resolved path;
#: invalidated per-file by a stat mismatch, wholesale by clear_cache().
_CACHE: Dict[Path, Tuple[Tuple[int, int], ModuleInfo]] = {}


def clear_cache() -> None:
    """Drop every cached module (tests use this to force re-parses)."""
    _CACHE.clear()


def load_module(path: Path, module: Optional[str] = None) -> ModuleInfo:
    """Load (or fetch from cache) the per-module analysis record.

    ``module`` overrides the derived identity; without it, a
    ``# reprolint: module=...`` directive wins over the path-derived
    name.  Overrides are applied on a shallow copy so a cached record is
    never mutated under a different identity.
    """
    resolved = path.resolve()
    stat = resolved.stat()
    key = (stat.st_size, stat.st_mtime_ns)
    cached = _CACHE.get(resolved)
    if cached is not None and cached[0] == key:
        info = cached[1]
    else:
        info = _parse_module(path)
        _CACHE[resolved] = (key, info)
    if module is not None and module != info.module:
        info = ModuleInfo(
            path=info.path,
            module=module,
            source=info.source,
            tree=info.tree,
            error=info.error,
            allow=info.allow,
            imports=info.imports,
        )
    return info


def _parse_module(path: Path) -> ModuleInfo:
    source = path.read_text(encoding="utf-8")
    module = module_directive(source)
    if module is None:
        module = module_name_for(path)
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return ModuleInfo(
            path=path,
            module=module,
            source=source,
            tree=None,
            error=(exc.lineno or 1, exc.offset or 0, f"syntax error: {exc.msg}"),
        )
    return ModuleInfo(
        path=path,
        module=module,
        source=source,
        tree=tree,
        allow=parse_pragmas(source),
        imports=frozenset(_import_origins(tree).values()),
    )


# --------------------------------------------------------------------- #
# The program view
# --------------------------------------------------------------------- #


class Program:
    """The whole-program view the protocol rules run against.

    Built from every parse-clean module in the lint batch.  Offers the
    import graph (which repro module imports which) and an approximate
    call graph: edges are *names* — ``qualname -> called simple names``
    — because a dynamically typed call site rarely pins the receiver.
    The protocol rules sharpen this where they can (same-class method
    resolution in R7).
    """

    def __init__(self, modules: List[ModuleInfo]) -> None:
        self.modules = [m for m in modules if m.tree is not None]
        self.by_name: Dict[str, ModuleInfo] = {
            m.module: m for m in self.modules if m.module is not None
        }
        self._functions: Optional[List[FunctionInfo]] = None
        self._import_graph: Optional[Dict[str, frozenset[str]]] = None
        self._call_graph: Optional[Dict[str, frozenset[str]]] = None

    def functions(self) -> List[FunctionInfo]:
        if self._functions is None:
            self._functions = [
                fn for module in self.modules for fn in module.functions()
            ]
        return self._functions

    def classes(self) -> Iterator[Tuple[ModuleInfo, ast.ClassDef]]:
        for module in self.modules:
            for node in module.classes():
                yield module, node

    def import_graph(self) -> Dict[str, frozenset[str]]:
        """module -> imported repro modules (in-batch names only)."""
        if self._import_graph is None:
            known = set(self.by_name)
            graph: Dict[str, frozenset[str]] = {}
            for module in self.modules:
                if module.module is None:
                    continue
                edges = set()
                for origin in module.imports:
                    # "repro.obs.metrics.Counter" -> "repro.obs.metrics".
                    parts = origin.split(".")
                    for cut in range(len(parts), 0, -1):
                        prefix = ".".join(parts[:cut])
                        if prefix in known:
                            edges.add(prefix)
                            break
                graph[module.module] = frozenset(edges)
            self._import_graph = graph
        return self._import_graph

    def importers_of(self, name: str) -> frozenset[str]:
        return frozenset(
            mod
            for mod, edges in self.import_graph().items()
            if name in edges
        )

    def call_graph(self) -> Dict[str, frozenset[str]]:
        """qualname -> simple names of everything the body calls."""
        if self._call_graph is None:
            graph: Dict[str, frozenset[str]] = {}
            for fn in self.functions():
                called = set()
                for node in ast.walk(fn.node):
                    if isinstance(node, ast.Call):
                        target = call_target(node)
                        if target is not None:
                            called.add(target)
                graph[fn.qualname] = frozenset(called)
            self._call_graph = graph
        return self._call_graph

    def resolve_name(self, name: str) -> List[FunctionInfo]:
        """Every in-batch function with this simple name (call-graph
        edge resolution — deliberately over-approximate)."""
        return [fn for fn in self.functions() if fn.name == name]
