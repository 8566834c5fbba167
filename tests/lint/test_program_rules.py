"""Whole-program rule R7: fixture pair, pragma round-trips, the
committed regression (neutered WAL sync), module identity, and the CLI
surface (formats, path checks, --explain)."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from repro.lint import lint_file, run_lint
from repro.lint.program import load_module

FIXTURES = Path(__file__).parent / "fixtures"
REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"


def _rules_hit(path: Path, module: str | None = None) -> dict[str, int]:
    hit: dict[str, int] = {}
    for violation in lint_file(path, module=module):
        hit[violation.rule] = hit.get(violation.rule, 0) + 1
    return hit


class TestFixturePairs:
    """R7 fires on its bad fixture, never on its good twin.

    The fixtures carry ``# reprolint: module=repro.service...`` directives
    so the service-scoped half treats them as in-scope modules.
    """

    def test_r7_bad_flags_unsynced_wal_and_early_ack(self):
        hit = _rules_hit(FIXTURES / "r7_bad.py")
        # commit(), truncate(), and the ack-before-apply — nothing else.
        assert hit == {"R7": 3}

    def test_r7_good_barrier_paths_pass(self):
        assert _rules_hit(FIXTURES / "r7_good.py") == {}



class TestPragmaRoundTrip:
    """``# reprolint: allow[R7,...]`` suppresses program-rule findings at
    exactly the flagged lines — insert pragmas above each violation and
    the file goes clean; an unrelated rule id does not suppress."""

    def _suppressed(self, fixture: str, rule: str, tmp_path: Path) -> None:
        source = (FIXTURES / fixture).read_text()
        found = lint_file(FIXTURES / fixture)
        lines = source.splitlines(keepends=True)
        for violation in sorted(found, key=lambda v: -v.line):
            indent = lines[violation.line - 1][
                : len(lines[violation.line - 1])
                - len(lines[violation.line - 1].lstrip())
            ]
            lines.insert(
                violation.line - 1, f"{indent}# reprolint: allow[{rule}]\n"
            )
        patched = tmp_path / fixture
        patched.write_text("".join(lines))
        remaining = [v for v in lint_file(patched) if v.rule == rule]
        assert remaining == []

    def test_r7_pragmas_suppress(self, tmp_path):
        self._suppressed("r7_bad.py", "R7", tmp_path)

    def test_wrong_rule_id_does_not_suppress(self, tmp_path):
        source = (FIXTURES / "r7_bad.py").read_text()
        found = lint_file(FIXTURES / "r7_bad.py")
        lines = source.splitlines(keepends=True)
        for violation in found:
            lines[violation.line - 1] = (
                lines[violation.line - 1].rstrip("\n")
                + "  # reprolint: allow[R1]\n"
            )
        patched = tmp_path / "r7_still_bad.py"
        patched.write_text("".join(lines))
        assert [v.rule for v in lint_file(patched)] == ["R7"] * len(found)


class TestHistoricalRegressions:
    """R7 must flag the *real* WAL module when its fix is reverted.

    This is the bug that motivated the rule: the PR 9 missing
    ``FlashDevice.sync()`` barrier on the WAL path.  The test reverts
    the fix in a scratch copy and asserts the rule fires — and that the
    pristine copy stays clean, so the signal is the revert, not noise.
    """

    WAL = SRC / "engine" / "wal.py"
    BARRIER = "        self.chip.sync()\n"

    def test_r7_flags_neutered_wal_sync_barrier(self, tmp_path):
        source = self.WAL.read_text()
        assert source.count(self.BARRIER) == 2, "barrier blocks moved?"
        bad = tmp_path / "wal.py"
        bad.write_text(source.replace(self.BARRIER, ""))
        hit = [
            v
            for v in lint_file(bad, module="repro.engine.wal")
            if v.rule == "R7"
        ]
        assert hit, "R7 missed the reverted sync() barrier"
        flagged = " ".join(v.message for v in hit)
        assert "commit" in flagged and "truncate" in flagged

    def test_r7_clean_on_pristine_wal(self, tmp_path):
        good = tmp_path / "wal.py"
        good.write_text(self.WAL.read_text())
        found = lint_file(good, module="repro.engine.wal")
        assert [v for v in found if v.rule == "R7"] == []


class TestModuleIdentity:
    def test_module_directive_overrides_path(self, tmp_path):
        target = tmp_path / "whatever.py"
        target.write_text("# reprolint: module=repro.service.foo\nx = 1\n")
        assert load_module(target).module == "repro.service.foo"


def _cli(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *argv],
        capture_output=True,
        text=True,
        cwd=REPO,
    )


class TestCli:
    def test_unknown_select_is_usage_error(self):
        result = _cli("--select", "R99", "src")
        assert result.returncode == 2
        assert "R99" in result.stderr

    def test_explain_prints_rule_docstring(self):
        result = _cli("--explain", "R7")
        assert result.returncode == 0
        assert "sync()" in result.stdout

    def test_explain_unknown_rule(self):
        result = _cli("--explain", "R42")
        assert result.returncode == 2
        # Retired (R8 with the threaded scheduler, R9 and R10 for
        # wal_group() and direct tests); ids are not reused.
        for retired in ("R8", "R9", "R10"):
            assert _cli("--explain", retired).returncode == 2

    def test_list_rules_covers_r1_through_r7(self):
        result = _cli("--list-rules")
        assert result.returncode == 0
        listed = [line.split()[0] for line in result.stdout.splitlines()]
        assert listed == ["R1", "R2", "R3", "R4", "R5", "R6", "R7"]

    def test_non_python_file_is_usage_error(self):
        # A non-.py file used to lint nothing and exit 0.
        result = _cli("ROADMAP.md")
        assert result.returncode == 2
        assert "ROADMAP.md" in result.stderr

    def test_json_format(self):
        result = _cli(
            "--format", "json", str(FIXTURES / "r7_bad.py")
        )
        assert result.returncode == 1
        payload = json.loads(result.stdout)
        assert payload["count"] == 3
        assert {v["rule"] for v in payload["violations"]} == {"R7"}

    def test_sarif_format_to_file(self, tmp_path):
        out = tmp_path / "lint.sarif"
        result = _cli(
            "--format", "sarif", "--output", str(out),
            str(FIXTURES / "r7_bad.py"),
        )
        assert result.returncode == 1
        log = json.loads(out.read_text())
        assert log["version"] == "2.1.0"
        results = log["runs"][0]["results"]
        assert len(results) == 3
        region = results[0]["locations"][0]["physicalLocation"]["region"]
        assert region["startColumn"] >= 1  # SARIF columns are 1-based

    def test_github_format_escapes_and_annotates(self):
        result = _cli(
            "--format", "github", str(FIXTURES / "r7_bad.py")
        )
        assert result.returncode == 1
        lines = [
            ln for ln in result.stdout.splitlines() if ln.startswith("::error ")
        ]
        assert len(lines) == 3
        assert all("file=" in ln and "line=" in ln for ln in lines)


class TestHeadIsClean:
    def test_full_rule_set_clean_at_head(self):
        found = run_lint([REPO / "src", REPO / "tests"])
        assert found == [], [v.render() for v in found]
