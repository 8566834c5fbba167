"""reprolint: one seeded fixture per rule (R1-R4, R6), pragma handling,
CLI exit codes, and the exit-zero-at-HEAD gate."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from repro.lint import lint_file, run_lint
from repro.lint.program import module_name_for, parse_pragmas

FIXTURES = Path(__file__).parent / "fixtures"
REPO = Path(__file__).resolve().parents[2]


def _rules_hit(path: Path, module: str) -> dict[str, int]:
    found = lint_file(path, module=module)
    hit: dict[str, int] = {}
    for violation in found:
        hit[violation.rule] = hit.get(violation.rule, 0) + 1
    return hit


class TestFixtures:
    """Each rule fires on its fixture and only where expected."""

    def test_r1_wallclock_and_unseeded_rng(self):
        hit = _rules_hit(FIXTURES / "r1_wallclock.py", "repro.fixture_r1")
        # time.time(), random.random(), default_rng() with no seed —
        # but not default_rng(seed).
        assert hit.get("R1") == 3

    def test_r2_deep_import_and_private_attr(self):
        hit = _rules_hit(FIXTURES / "r2_layering.py", "repro.engine.fixture")
        # one deep import + one _disturb_worst write
        assert hit.get("R2") == 2

    def test_r2_allowed_inside_flash(self):
        hit = _rules_hit(FIXTURES / "r2_layering.py", "repro.flash.fixture")
        assert "R2" not in hit

    def test_r3_undeclared_key(self):
        found = lint_file(FIXTURES / "r3_counters.py", module="repro.fixture_r3")
        messages = [v.message for v in found if v.rule == "R3"]
        # One finding per undeclared literal name; the f-string name is
        # derived and out of scope.
        assert len(messages) == 2
        assert sum("totally_unregistered_histogram" in m for m in messages) == 1
        assert sum("totally_unregistered_callback" in m for m in messages) == 1

    def test_r4_broad_except(self):
        hit = _rules_hit(FIXTURES / "r4_broad_except.py", "repro.fixture_r4")
        # swallow() fires; reraise_ok() does not.
        assert hit.get("R4") == 1

    def test_r6_worker_entropy(self):
        hit = _rules_hit(
            FIXTURES / "r6_worker_entropy.py", "repro.fixture_r6"
        )
        # os.urandom, uuid.uuid4, argless SeedSequence() — but not
        # SeedSequence(seed) or the pool itself.
        assert hit.get("R6") == 3

    def test_r6_needs_multiprocessing_import(self, tmp_path):
        # Same entropy calls without multiprocessing in scope: R6 is
        # silent (R1 governs general determinism; R6 is the worker rule).
        plain = tmp_path / "plain.py"
        plain.write_text("import os\n\ndef f():\n    return os.urandom(8)\n")
        found = lint_file(plain, module="repro.fixture_plain")
        assert [v for v in found if v.rule == "R6"] == []

    def test_clean_fixture(self):
        assert lint_file(FIXTURES / "clean.py", module="repro.fixture_ok") == []


class TestPragmas:
    def test_same_line_and_previous_line(self):
        source = (
            "x = 1  # reprolint: allow[R1]\n"
            "# reprolint: allow[R2,R4]\n"
            "y = 2\n"
        )
        allow = parse_pragmas(source)
        assert "R1" in allow[1]
        assert allow[3] == frozenset({"R2", "R4"})

    def test_pragma_suppresses_violation(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import time\n\n"
            "def stamp():\n"
            "    return time.time()  # reprolint: allow[R1]\n"
        )
        assert lint_file(bad, module="repro.fixture_pragma") == []


class TestEngine:
    def test_module_name_derivation(self):
        path = REPO / "src" / "repro" / "flash" / "chip.py"
        assert module_name_for(path) == "repro.flash.chip"
        assert module_name_for(REPO / "tests" / "test_imports.py") is None

    def test_fixture_dirs_are_skipped(self):
        # run_lint over tests/lint must not flag the seeded fixtures.
        found = run_lint([Path(__file__).parent])
        assert [v for v in found if "fixtures" in v.path] == []

    def test_r3_reverse_direction_unused_declared_key(self, tmp_path):
        # A scanned tree containing the registry but none of the use
        # sites must flag every declared key as unused.
        registry_src = (
            REPO / "src" / "repro" / "obs" / "registry.py"
        ).read_text()
        tree = tmp_path / "src" / "repro" / "obs"
        tree.mkdir(parents=True)
        (tree / "registry.py").write_text(registry_src)
        found = run_lint([tmp_path])
        unused = [v for v in found if "never used" in v.message]
        assert len(unused) > 0


class TestCli:
    def test_nonzero_on_fixture_violations(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(FIXTURES)],
            capture_output=True,
            text=True,
            cwd=REPO,
        )
        assert result.returncode == 1
        assert "R1" in result.stdout
        assert "R4" in result.stdout

    def test_zero_on_repo_at_head(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.lint"],
            capture_output=True,
            text=True,
            cwd=REPO,
        )
        assert result.returncode == 0, result.stdout + result.stderr

    def test_select_limits_rules(self):
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.lint",
                "--select",
                "R4",
                str(FIXTURES),
            ],
            capture_output=True,
            text=True,
            cwd=REPO,
        )
        assert result.returncode == 1
        assert "R1" not in result.stdout
        assert "R4" in result.stdout
