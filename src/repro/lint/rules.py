"""The repo-specific rule set.  Each rule documents its motivating bug.

Rules are small classes sharing one interface so the engine can drive
them uniformly and R3 can keep cross-file state:

* ``rule_id`` — "R1".."R6", used in output and ``allow[...]`` pragmas.
* ``applies(module, path)`` — scope predicate (src/repro vs everywhere).
* ``check(tree, path, module)`` — yields ``(line, col, message)``.
* ``finish()`` — cross-file findings after the whole batch, as
  ``(path, line, col, message)``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Iterator

Finding = tuple[int, int, str]


def _import_aliases(tree: ast.AST) -> dict[str, str]:
    """Map local binding -> dotted origin for every import in the file.

    ``import numpy as np`` -> ``{"np": "numpy"}``;
    ``from datetime import datetime`` -> ``{"datetime": "datetime.datetime"}``.
    """
    aliases: dict[str, str] = {}
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


def _resolve_call(node: ast.expr, aliases: dict[str, str]) -> str | None:
    """Dotted origin of a Name/Attribute chain, or None if the chain is
    rooted in a local object rather than an imported module."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    origin = aliases.get(node.id)
    if origin is None:
        return None
    parts.append(origin)
    parts.reverse()
    return ".".join(parts)


def _has_args(call: ast.Call) -> bool:
    return bool(call.args) or bool(call.keywords)


class Rule:
    """Base: stateless scope/check/finish contract."""

    rule_id = "R0"

    def applies(self, module: str | None, path: Path) -> bool:
        raise NotImplementedError

    def check(
        self, tree: ast.AST, path: Path, module: str | None
    ) -> Iterator[Finding]:
        raise NotImplementedError

    def finish(self) -> Iterable[tuple[str, int, int, str]]:
        return ()


class DeterminismRule(Rule):
    """R1: the crash sweep replays runs by (seed, op-count) coordinates
    (docs/recovery.md), so one wall-clock read or global-RNG call makes
    fault injection unreproducible.  All time flows through ``SimClock``;
    all randomness through seeded ``Generator`` / ``random.Random``
    instances passed down the stack.
    """

    rule_id = "R1"

    BANNED_WALLCLOCK = frozenset(
        {
            "time.time",
            "time.time_ns",
            "time.sleep",
            "time.monotonic",
            "time.monotonic_ns",
            "time.perf_counter",
            "time.perf_counter_ns",
            "time.process_time",
            "time.process_time_ns",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "datetime.date.today",
        }
    )
    #: np.random attributes that construct seeded/explicit generators.
    SEEDED_CONSTRUCTORS = frozenset(
        {"Generator", "SeedSequence", "BitGenerator", "PCG64", "Philox", "MT19937"}
    )

    def applies(self, module: str | None, path: Path) -> bool:
        return module is not None and module.startswith("repro")

    def check(
        self, tree: ast.AST, path: Path, module: str | None
    ) -> Iterator[Finding]:
        aliases = _import_aliases(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _resolve_call(node.func, aliases)
            if name is None:
                continue
            if name in self.BANNED_WALLCLOCK:
                yield (
                    node.lineno,
                    node.col_offset,
                    f"wall-clock call {name}() — simulated time must flow "
                    "through SimClock",
                )
            elif name == "random.Random" or name == "random.SystemRandom":
                if name == "random.SystemRandom" or not _has_args(node):
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"unseeded RNG {name}() — pass an explicit seed",
                    )
            elif name.startswith("random."):
                yield (
                    node.lineno,
                    node.col_offset,
                    f"module-level RNG call {name}() shares global state — "
                    "use a seeded random.Random instance",
                )
            elif name.startswith("numpy.random."):
                attr = name[len("numpy.random.") :]
                if attr in self.SEEDED_CONSTRUCTORS:
                    continue
                if attr == "default_rng" and _has_args(node):
                    continue
                yield (
                    node.lineno,
                    node.col_offset,
                    f"unseeded numpy RNG call {name}() — use "
                    "np.random.default_rng(seed)",
                )


class LayeringRule(Rule):
    """R2: the flash internals (page/block/cell physics) are reachable
    only through ``FlashChip`` and the FTL interface.  A workload or
    engine module calling a kernel body such as ``FlashChip._program``
    behind a wrapper's back, or poking ``PhysicalPage._disturb_worst``,
    would bypass the accounting or the ECC model the paper's Table 1
    numbers are built on.
    """

    rule_id = "R2"

    INTERNAL_MODULES = frozenset(
        {
            "repro.flash.page",
            "repro.flash.block",
            "repro.flash.cellmodel",
            "repro.flash.interference",
        }
    )
    ALLOWED_IMPORTERS = ("repro.flash", "repro.ftl", "repro.fault")
    PRIVATE_ATTRS = frozenset(
        {
            "_sense",
            "_program",
            "_reprogram",
            "_partial",
            "_erase",
            "_pulse_done",
            "_disturb",
            "_disturb_total",
            "_disturb_worst",
        }
    )

    def applies(self, module: str | None, path: Path) -> bool:
        return module is not None and module.startswith("repro")

    def check(
        self, tree: ast.AST, path: Path, module: str | None
    ) -> Iterator[Finding]:
        assert module is not None
        import_ok = module.startswith(self.ALLOWED_IMPORTERS)
        attr_ok = module.startswith("repro.flash")
        for node in ast.walk(tree):
            if not import_ok and isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in self.INTERNAL_MODULES:
                        yield (
                            node.lineno,
                            node.col_offset,
                            f"import of flash internal {alias.name} — go "
                            "through repro.flash / the FTL interface",
                        )
            elif not import_ok and isinstance(node, ast.ImportFrom):
                if node.module in self.INTERNAL_MODULES:
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"import from flash internal {node.module} — go "
                        "through repro.flash / the FTL interface",
                    )
                elif node.module == "repro.flash":
                    for alias in node.names:
                        full = f"repro.flash.{alias.name}"
                        if full in self.INTERNAL_MODULES:
                            yield (
                                node.lineno,
                                node.col_offset,
                                f"import of flash internal {full} — go "
                                "through repro.flash / the FTL interface",
                            )
            elif not attr_ok and isinstance(node, ast.Attribute):
                if node.attr in self.PRIVATE_ATTRS:
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"access to flash-private attribute .{node.attr} "
                        "outside repro.flash bypasses physics/accounting",
                    )


class MetricNameRule(Rule):
    """R3: PR 4's accounting bugs were counter keys drifting between
    writer and reader.  Every hand-written metric name — the key of a
    ``.histogram(...)`` call and a string-literal ``.register_callback``
    name — must be declared in ``repro.obs.registry.KNOWN_METRIC_KEYS``,
    and every declared key must be used, so retired metrics cannot
    linger in reports.  Callback names built from a dataclass field or
    an index (f-strings) are derived, not hand-written, and out of scope.
    """

    rule_id = "R3"

    #: Metric *infrastructure* (the factories, the declaration table) —
    #: exempt, everything there is by definition generic.
    EXEMPT_SUFFIXES = (
        "repro/obs/metrics.py",
        "repro/obs/registry.py",
    )

    def __init__(self) -> None:
        self._used: set[str] = set()
        self._registry_path: Path | None = None

    def applies(self, module: str | None, path: Path) -> bool:
        if module is None or not module.startswith("repro"):
            return False
        posix = path.as_posix()
        if posix.endswith("repro/obs/registry.py"):
            # Not checked, but remember it was in the batch: the
            # declared-but-unused direction only makes sense when the
            # declarations themselves are part of the scanned tree.
            self._registry_path = path
            return False
        return not posix.endswith(self.EXEMPT_SUFFIXES)

    def check(
        self, tree: ast.AST, path: Path, module: str | None
    ) -> Iterator[Finding]:
        known = _known_metric_keys()
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("histogram", "register_callback")
                and node.args
            ):
                continue
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                key = first.value
                self._used.add(key)
                if key not in known:
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"metric key '{key}' not declared in "
                        "repro.obs.registry.KNOWN_METRIC_KEYS",
                    )
            elif node.func.attr == "histogram":
                yield (
                    node.lineno,
                    node.col_offset,
                    "dynamic metric key in .histogram(...) cannot be "
                    "checked against the registry",
                )

    def finish(self) -> Iterable[tuple[str, int, int, str]]:
        if self._registry_path is None:
            return
        source = self._registry_path.read_text(encoding="utf-8")
        lines = source.splitlines()
        for key in sorted(_known_metric_keys()):
            if key in self._used:
                continue
            line = next(
                (
                    number
                    for number, text in enumerate(lines, start=1)
                    if f'"{key}"' in text
                ),
                1,
            )
            yield (
                str(self._registry_path),
                line,
                0,
                f"declared metric key '{key}' is never used by any "
                "histogram or register_callback site",
            )


def _known_metric_keys() -> frozenset[str]:
    from repro.obs.registry import KNOWN_METRIC_KEYS

    return frozenset(KNOWN_METRIC_KEYS)


class ExceptionHygieneRule(Rule):
    """R4: ``PowerLossError`` subclasses ``RuntimeError``, so a broad
    handler silently eats the injected crash and the fault sweep reports
    a recovery that never ran.  Handlers for ``Exception`` /
    ``RuntimeError`` / ``BaseException`` / bare ``except`` must re-raise
    (a top-level bare ``raise``) or carry an ``allow[R4]`` pragma.
    """

    rule_id = "R4"

    BROAD = frozenset({"Exception", "BaseException", "RuntimeError"})

    def applies(self, module: str | None, path: Path) -> bool:
        return module is not None and module.startswith("repro")

    def check(
        self, tree: ast.AST, path: Path, module: str | None
    ) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            broad = self._broad_name(node.type)
            if broad is None:
                continue
            reraises = any(
                isinstance(stmt, ast.Raise) and stmt.exc is None
                for stmt in node.body
            )
            if reraises:
                continue
            yield (
                node.lineno,
                node.col_offset,
                f"broad handler '{broad}' can swallow PowerLossError — "
                "catch the specific exception or re-raise",
            )

    def _broad_name(self, node: ast.expr | None) -> str | None:
        if node is None:
            return "except:"
        if isinstance(node, ast.Name) and node.id in self.BROAD:
            return node.id
        if isinstance(node, ast.Tuple):
            for element in node.elts:
                name = self._broad_name(element)
                if name is not None and name != "except:":
                    return name
        return None


class HygieneRule(Rule):
    """R5: the ruff subset this repo cares about, implemented locally so
    the gate needs no third-party install — unused imports (F401),
    f-strings without placeholders (F541), mutable default arguments
    (B006).
    """

    rule_id = "R5"

    MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray"})

    def applies(self, module: str | None, path: Path) -> bool:
        return True

    def check(
        self, tree: ast.AST, path: Path, module: str | None
    ) -> Iterator[Finding]:
        yield from self._unused_imports(tree, path)
        # A FormattedValue's format spec is itself a JoinedStr node
        # (f"{x:.3f}" -> spec ".3f"); those are not user f-strings.
        spec_ids = {
            id(node.format_spec)
            for node in ast.walk(tree)
            if isinstance(node, ast.FormattedValue)
            and node.format_spec is not None
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.JoinedStr):
                if id(node) in spec_ids:
                    continue
                if not any(
                    isinstance(part, ast.FormattedValue)
                    for part in node.values
                ):
                    yield (
                        node.lineno,
                        node.col_offset,
                        "f-string without placeholders",
                    )
            elif isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                defaults = list(node.args.defaults) + [
                    d for d in node.args.kw_defaults if d is not None
                ]
                for default in defaults:
                    if self._is_mutable(default):
                        yield (
                            default.lineno,
                            default.col_offset,
                            f"mutable default argument in {node.name}() — "
                            "use None and construct inside",
                        )

    def _is_mutable(self, node: ast.expr) -> bool:
        if isinstance(
            node,
            (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
        ):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in self.MUTABLE_CALLS
        )

    def _unused_imports(
        self, tree: ast.AST, path: Path
    ) -> Iterator[Finding]:
        if path.name == "__init__.py":
            # Re-export surface: imports exist to be imported from here.
            return
        bound: dict[str, tuple[int, int, str]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    bound[name] = (node.lineno, node.col_offset, alias.name)
            elif isinstance(node, ast.ImportFrom):
                if node.module == "__future__":
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    name = alias.asname or alias.name
                    origin = f"{node.module or ''}.{alias.name}"
                    bound[name] = (node.lineno, node.col_offset, origin)
        if not bound:
            return
        used: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Constant) and isinstance(
                node.value, str
            ):
                # __all__ entries and string annotations count as use.
                used.add(node.value)
        for name, (line, col, origin) in sorted(bound.items()):
            if name not in used:
                yield (line, col, f"unused import '{origin}'")


class WorkerSeedRule(Rule):
    """R6: the parallel runner's determinism contract
    (``repro.bench.parallel``) is that serial and ``--jobs N`` runs are
    bit-identical, which holds only if every worker's randomness is a
    pure function of the experiment seed.  In any module that uses
    multiprocessing, one ``os.urandom`` / ``uuid4`` / argless
    ``SeedSequence()`` (all of which pull OS entropy) silently breaks
    replayability, so they are banned there outright — derive worker
    seeds with ``repro.workloads.base.derive_seeds`` or an explicit
    ``SeedSequence(seed).spawn(n)``.
    """

    rule_id = "R6"

    BANNED_EXACT = frozenset(
        {
            "os.urandom",
            "os.getrandom",
            "uuid.uuid1",
            "uuid.uuid4",
        }
    )

    def applies(self, module: str | None, path: Path) -> bool:
        return module is not None and module.startswith("repro")

    def check(
        self, tree: ast.AST, path: Path, module: str | None
    ) -> Iterator[Finding]:
        aliases = _import_aliases(tree)
        uses_workers = any(
            origin == "multiprocessing"
            or origin.startswith(("multiprocessing.", "concurrent."))
            for origin in aliases.values()
        )
        if not uses_workers:
            return
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _resolve_call(node.func, aliases)
            if name is None:
                continue
            if name in self.BANNED_EXACT or name.startswith("secrets."):
                yield (
                    node.lineno,
                    node.col_offset,
                    f"OS entropy via {name}() in multiprocessing code — "
                    "worker randomness must derive from the experiment "
                    "seed (repro.workloads.base.derive_seeds)",
                )
            elif name == "numpy.random.SeedSequence" and not _has_args(node):
                yield (
                    node.lineno,
                    node.col_offset,
                    "SeedSequence() without a seed pulls OS entropy — "
                    "spawn worker seeds from SeedSequence(experiment_seed)",
                )


ALL_RULES = (
    DeterminismRule,
    LayeringRule,
    MetricNameRule,
    ExceptionHygieneRule,
    HygieneRule,
    WorkerSeedRule,
)
