"""The repo's own invariants, as plain AST tests over ``src/repro``.

The paper's claims are count claims resting on deterministic replay, so
each rule here guards a property a generic linter cannot know.  Every
rule is a small checker over one syntax tree, one test running it over
every module of ``src/repro`` (parsed once per session, see
``conftest.py``), and a seeded fixture under ``fixtures/`` as its
negative case:

* **R1 determinism** — no wall-clock read, no unseeded or module-level
  RNG.
* **R2 layering** — the flash internals are imported only by
  ``repro.flash`` / ``repro.ftl`` / ``repro.fault``; the flash kernel's
  private bodies and disturb buffers are touched only inside
  ``repro.flash``.
* **R3 metric registry** — every literal metric name is declared in
  ``repro.obs.registry.KNOWN_METRIC_KEYS``, and every declared name is
  used.
* **R4 exception hygiene** — no handler broad enough to swallow
  ``PowerLossError`` (a ``RuntimeError``) without re-raising, outside
  an allow-list.
* **R5 hygiene** — ``repro.lint``: unused imports, placeholder-free
  f-strings, mutable defaults, over ``src``, ``tests`` and
  ``benchmarks``.
* **R6 worker seeding** — no OS entropy in a module that uses
  multiprocessing.

``docs/static_analysis.md`` gives each rule's motivating bug.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from collections import Counter
from pathlib import Path

from repro.lint import check, check_paths, main
from repro.obs.registry import KNOWN_METRIC_KEYS

FIXTURES = Path(__file__).parent / "fixtures"
REPO = Path(__file__).resolve().parents[2]

Finding = tuple[int, str]


def _parse(fixture: str) -> ast.Module:
    path = FIXTURES / fixture
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _import_aliases(tree: ast.AST) -> dict[str, str]:
    """Local binding -> dotted origin for every import in the tree:
    ``import numpy as np`` -> ``{"np": "numpy"}``, ``from datetime import
    datetime`` -> ``{"datetime": "datetime.datetime"}``."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                aliases[bound] = alias.name if alias.asname else bound
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                if alias.name != "*":
                    aliases[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
    return aliases


def _calls(tree: ast.AST) -> list[tuple[ast.Call, str]]:
    """Every call whose callee is an attribute chain rooted in an import,
    with the callee's dotted origin (``np.random.rand`` ->
    ``numpy.random.rand``)."""
    aliases = _import_aliases(tree)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        parts, func = [], node.func
        while isinstance(func, ast.Attribute):
            parts.append(func.attr)
            func = func.value
        if isinstance(func, ast.Name) and func.id in aliases:
            parts.append(aliases[func.id])
            found.append((node, ".".join(reversed(parts))))
    return found


def _has_args(call: ast.Call) -> bool:
    return bool(call.args or call.keywords)


def _each(modules, checker) -> list[str]:
    """``where:line: message`` of ``checker(module)`` over ``modules``."""
    return [
        f"{module.where}:{line}: {message}"
        for module in modules.values()
        for line, message in checker(module)
    ]


# --------------------------------------------------------------------- #
# R1 — determinism
# --------------------------------------------------------------------- #

WALLCLOCK = frozenset({
    "time.time", "time.time_ns", "time.sleep",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})
#: ``numpy.random`` names that build an explicit generator.
SEEDED_CONSTRUCTORS = frozenset(
    {"Generator", "SeedSequence", "BitGenerator", "PCG64", "Philox", "MT19937"}
)


def determinism(tree: ast.AST) -> list[Finding]:
    """R1: wall-clock reads and unseeded or global-state RNG calls."""
    found = []
    for call, name in _calls(tree):
        if name in WALLCLOCK:
            found.append((call.lineno, f"wall-clock call {name}()"))
        elif name == "random.SystemRandom" or (
            name == "random.Random" and not _has_args(call)
        ):
            found.append((call.lineno, f"unseeded RNG {name}()"))
        elif name.startswith("random.") and name != "random.Random":
            found.append((call.lineno, f"global-state RNG call {name}()"))
        elif name.startswith("numpy.random."):
            attr = name.removeprefix("numpy.random.")
            if not (
                attr in SEEDED_CONSTRUCTORS
                or (attr == "default_rng" and _has_args(call))
            ):
                found.append((call.lineno, f"unseeded numpy RNG call {name}()"))
    return found


def test_r1_no_wallclock_or_unseeded_rng(repro_modules):
    found = _each(repro_modules, lambda module: determinism(module.tree))
    hint = "time flows through SimClock, randomness through seeded generators"
    assert found == [], "\n".join([hint, *found])


# --------------------------------------------------------------------- #
# R2 — layering
# --------------------------------------------------------------------- #

FLASH_INTERNALS = frozenset({
    "repro.flash.page", "repro.flash.block",
    "repro.flash.cellmodel", "repro.flash.interference",
})
INTERNAL_IMPORTERS = ("repro.flash", "repro.ftl", "repro.fault")
#: The flash kernel's private bodies and a page's disturb buffers.
FLASH_PRIVATE = frozenset({
    "_sense", "_program", "_reprogram", "_partial", "_erase", "_pulse_done",
    "_disturb", "_disturb_total", "_disturb_worst",
})


def _imported(node: ast.Import | ast.ImportFrom) -> list[str]:
    """Dotted names an import loads: ``from repro.flash import page``
    loads ``repro.flash`` and ``repro.flash.page``."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    module = node.module or ""
    return [module, *(f"{module}.{alias.name}" for alias in node.names)]


def layering(module: str, tree: ast.AST) -> list[Finding]:
    """R2: flash internals imported, or flash-private attributes touched,
    from a module whose package may not."""
    imports_ok = module.startswith(INTERNAL_IMPORTERS)
    private_ok = module.startswith("repro.flash")
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in FLASH_PRIVATE:
            if not private_ok:
                found.append((node.lineno, f"flash-private .{node.attr}"))
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and not imports_ok:
            found += [
                (node.lineno, f"import of flash internal {target}")
                for target in _imported(node)
                if target in FLASH_INTERNALS
            ]
    return found


def test_r2_flash_internals_stay_behind_the_chip(repro_modules):
    found = _each(repro_modules, lambda module: layering(module.name, module.tree))
    hint = "go through repro.flash / the FTL interface"
    assert found == [], "\n".join([hint, *found])


# --------------------------------------------------------------------- #
# R3 — metric registry
# --------------------------------------------------------------------- #

#: The metric factories and the declarations themselves.
R3_EXEMPT = frozenset({"repro/obs/metrics.py", "repro/obs/registry.py"})


def metric_keys(tree: ast.AST) -> tuple[list[tuple[int, str]], list[int]]:
    """``(line, key)`` of each literal name passed to ``.histogram``, and
    the lines of ``.histogram`` calls whose key is not a literal."""
    keys, dynamic = [], []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "histogram"
            and node.args
        ):
            continue
        first = node.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            keys.append((node.lineno, first.value))
        else:
            dynamic.append(node.lineno)
    return keys, dynamic


def registry_drift(modules) -> tuple[list[str], list[str]]:
    """``(undeclared, unused)``: each use of a name the registry does not
    declare (and each dynamic histogram key), and each declared name no
    module uses.  ``modules`` yields ``(where, tree)``."""
    undeclared, used = [], set()
    for where, tree in modules:
        if where in R3_EXEMPT:
            continue
        keys, dynamic = metric_keys(tree)
        used.update(key for _line, key in keys)
        undeclared += [
            f"{where}:{line}: '{key}' is not declared"
            for line, key in keys
            if key not in KNOWN_METRIC_KEYS
        ]
        undeclared += [f"{where}:{line}: dynamic histogram key" for line in dynamic]
    return undeclared, sorted(set(KNOWN_METRIC_KEYS) - used)


def _sources(repro_modules):
    return [(module.where, module.tree) for module in repro_modules.values()]


def test_r3_metric_names_match_the_registry(repro_modules):
    undeclared, unused = registry_drift(_sources(repro_modules))
    assert undeclared == [], "declare it in repro.obs.registry:\n" + (
        "\n".join(undeclared)
    )
    assert unused == [], f"declared but never used: {unused}"


# --------------------------------------------------------------------- #
# R4 — exception hygiene
# --------------------------------------------------------------------- #

BROAD = frozenset({"Exception", "BaseException", "RuntimeError"})
#: ``(path, function): count`` of the broad handlers allowed to stay.
#: Each is wrapped and chained into ``WorkerFailure``, never swallowed.
ALLOWED_BROAD = {("repro/bench/parallel.py", "parallel_map"): 2}


def _broad_name(node: ast.expr | None) -> str | None:
    if node is None:
        return "except:"
    if isinstance(node, ast.Name) and node.id in BROAD:
        return node.id
    if isinstance(node, ast.Tuple):
        names = [_broad_name(element) for element in node.elts]
        return next((name for name in names if name), None)
    return None


def broad_handlers(tree: ast.AST) -> list[tuple[int, str, str]]:
    """R4: ``(line, enclosing function, handler)`` of each ``except``
    for ``Exception`` / ``BaseException`` / ``RuntimeError`` (or bare)
    whose body has no top-level bare ``raise``."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.ExceptHandler):
                broad = _broad_name(child.type)
                reraises = any(
                    isinstance(stmt, ast.Raise) and stmt.exc is None
                    for stmt in child.body
                )
                if broad and not reraises:
                    found.append((child.lineno, function, broad))
            visit(child, function)

    visit(tree, "<module>")
    return found


def test_r4_no_broad_handler_swallows_power_loss(repro_modules):
    found = {
        module.where: broad_handlers(module.tree)
        for module in repro_modules.values()
    }
    sites = Counter(
        (where, function)
        for where, handlers in found.items()
        for _line, function, _broad in handlers
    )
    hint = "catch the specific exception or re-raise (PowerLossError)"
    assert sites == Counter(ALLOWED_BROAD), "\n".join([hint, *(
        f"{where}:{line}: {broad} in {function}()"
        for where, handlers in found.items()
        for line, function, broad in handlers
    )])


# --------------------------------------------------------------------- #
# R6 — worker seeding
# --------------------------------------------------------------------- #

OS_ENTROPY = frozenset({"os.urandom", "os.getrandom", "uuid.uuid1", "uuid.uuid4"})


def worker_entropy(tree: ast.AST) -> list[Finding]:
    """R6: OS entropy in a module that imports multiprocessing or
    ``concurrent``; worker seeds derive from the experiment seed."""
    origins = _import_aliases(tree).values()
    if not any(
        origin == "multiprocessing"
        or origin.startswith(("multiprocessing.", "concurrent."))
        for origin in origins
    ):
        return []
    return [
        (call.lineno, f"OS entropy via {name}()")
        for call, name in _calls(tree)
        if name in OS_ENTROPY
        or name.startswith("secrets.")
        or (name == "numpy.random.SeedSequence" and not _has_args(call))
    ]


def test_r6_worker_seeds_derive_from_the_experiment_seed(repro_modules):
    found = _each(repro_modules, lambda module: worker_entropy(module.tree))
    hint = "derive worker seeds with repro.workloads.base.derive_seeds"
    assert found == [], "\n".join([hint, *found])


# --------------------------------------------------------------------- #
# Each rule fires on its fixture, and only where expected
# --------------------------------------------------------------------- #


class TestFixtures:
    def test_r1_wallclock_and_unseeded_rng(self):
        # time.time(), random.random(), default_rng() with no seed —
        # but not default_rng(seed).
        assert len(determinism(_parse("r1_wallclock.py"))) == 3

    def test_r2_deep_import_and_private_attr(self):
        # One deep import and one _disturb_worst write.
        tree = _parse("r2_layering.py")
        assert len(layering("repro.engine.fixture", tree)) == 2

    def test_r2_allowed_inside_flash(self):
        assert layering("repro.flash.fixture", _parse("r2_layering.py")) == []

    def test_r3_undeclared_key(self):
        # One finding for the undeclared literal name, one for the
        # histogram whose name is built at run time.
        undeclared, unused = registry_drift(
            [("r3_counters.py", _parse("r3_counters.py"))]
        )
        assert unused == sorted(KNOWN_METRIC_KEYS)
        assert len(undeclared) == 2
        assert sum("totally_unregistered_histogram" in u for u in undeclared) == 1
        assert sum("dynamic histogram key" in u for u in undeclared) == 1

    def test_r4_broad_except(self):
        # swallow() fires; reraise_ok() does not.
        found = broad_handlers(_parse("r4_broad_except.py"))
        assert [(function, broad) for _l, function, broad in found] == [
            ("swallow", "Exception")
        ]

    def test_r5_hygiene(self):
        found = check(_parse("r5_hygiene.py"))
        assert [message.split()[0] for _l, _c, message in found] == [
            "F401", "F541", "B006"
        ]
        # The same imports in an __init__.py are a re-export surface.
        reexport = check(_parse("r5_hygiene.py"), init=True)
        assert [message.split()[0] for _l, _c, message in reexport] == [
            "F541", "B006"
        ]

    def test_r6_worker_entropy(self):
        # os.urandom, uuid.uuid4, argless SeedSequence() — but not
        # SeedSequence(seed) or the pool itself.
        assert len(worker_entropy(_parse("r6_worker_entropy.py"))) == 3

    def test_r6_needs_multiprocessing_import(self):
        # The same entropy call without multiprocessing in scope: R6 is
        # the worker rule, R1 governs determinism in general.
        plain = ast.parse("import os\n\ndef f():\n    return os.urandom(8)\n")
        assert worker_entropy(plain) == []

    def test_clean_fixture(self):
        tree = _parse("clean.py")
        assert determinism(tree) == []
        assert layering("repro.fixture_ok", tree) == []
        assert metric_keys(tree) == ([], [])
        assert broad_handlers(tree) == []
        assert worker_entropy(tree) == []
        assert check(tree) == []


class TestEngine:
    def test_module_name_derivation(self, repro_modules):
        assert repro_modules["repro.flash.chip"].where == "repro/flash/chip.py"
        assert repro_modules["repro.flash"].where == "repro/flash/__init__.py"
        assert repro_modules["repro"].where == "repro/__init__.py"

    def test_fixture_dirs_are_skipped(self):
        # Below a root, fixtures/ is skipped; named as the root, it is not.
        assert check_paths([Path(__file__).parent]) == []
        assert check_paths([FIXTURES]) != []

    def test_r3_reverse_direction_unused_declared_key(self, repro_modules):
        # Without the module that asks for the observed run's histograms,
        # exactly those declared names are unused.
        dropped = repro_modules["repro.obs"]
        keys, _dynamic = metric_keys(dropped.tree)
        rest = [s for s in _sources(repro_modules) if s[0] != dropped.where]
        undeclared, unused = registry_drift(rest)
        assert undeclared == []
        assert unused == sorted(key for _line, key in keys) != []


# --------------------------------------------------------------------- #
# R5: python -m repro.lint
# --------------------------------------------------------------------- #


class TestCli:
    def test_nonzero_on_fixture_violations(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(FIXTURES)],
            capture_output=True,
            text=True,
            cwd=REPO,
        )
        assert result.returncode == 1
        lines = result.stdout.splitlines()
        assert len(lines) == 3
        assert all("r5_hygiene.py" in line and " R5 " in line for line in lines)

    def test_zero_on_repo_at_head(self, monkeypatch, capsys):
        # No paths: src, tests, benchmarks and examples of the repo root.
        monkeypatch.chdir(REPO)
        assert main([]) == 0, capsys.readouterr().out

    def test_select_limits_rules(self, capsys):
        assert main(["--select", "R5", str(FIXTURES)]) == 1
        # The other rules are tests, not CLI rules.
        assert main(["--select", "R1", str(FIXTURES)]) == 2
        assert "R1" in capsys.readouterr().err

    def test_unknown_select_is_usage_error(self, capsys):
        assert main(["--select", "R99", str(REPO / "src")]) == 2
        assert "R99" in capsys.readouterr().err

    def test_non_python_file_is_usage_error(self, capsys):
        # A non-.py file would check nothing and exit 0.
        assert main([str(REPO / "ROADMAP.md")]) == 2
        assert "ROADMAP.md" in capsys.readouterr().err
