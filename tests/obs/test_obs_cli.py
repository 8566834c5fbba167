"""``python -m repro obs``: loud truncation, refused runs, artefact versions."""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

import repro.obs
from repro.__main__ import main
from repro.obs.report import load_artefact
from repro.obs.trace import Tracer


def run_obs(monkeypatch, *argv):
    monkeypatch.setattr(sys, "argv", list(sys.argv))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(["obs", *argv])
        except SystemExit as exit_:
            code = exit_.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def small_ring(monkeypatch):
    """Observed runs get a 100-span ring buffer."""
    monkeypatch.setattr(
        repro.obs, "Tracer", lambda clock: Tracer(clock=clock, capacity=100)
    )


class TestDroppedSpans:
    def test_report_header_names_the_drop(self, monkeypatch, small_ring, tmp_path):
        code, out, _ = run_obs(
            monkeypatch, "--transactions", "50", "--out", str(tmp_path)
        )
        assert code == 0
        dropped = load_artefact(str(tmp_path / "run.json"))["spans_dropped"]
        assert dropped > 0
        header = out.splitlines()[:2]
        assert header[0].startswith("Observed run:")
        assert header[1] == (
            f"WARNING: the span ring buffer dropped the {dropped:,} oldest "
            "spans; span counts and GC attribution cover only the rest"
        )

    def test_timeline_names_the_drop(self, monkeypatch, small_ring, tmp_path):
        code, out, _ = run_obs(
            monkeypatch, "timeline", str(tmp_path / "t.json"),
            "--transactions", "50",
        )
        assert code == 0
        assert "WARNING: the span ring buffer dropped the" in out
        events = json.loads((tmp_path / "t.json").read_text())["traceEvents"]
        assert sum(e["ph"] == "X" for e in events) == 100

    def test_silent_when_nothing_dropped(self, monkeypatch, tmp_path):
        code, out, _ = run_obs(
            monkeypatch, "timeline", str(tmp_path / "t.json"),
            "--transactions", "20",
        )
        assert code == 0
        assert "WARNING" not in out


class TestHistoryLimit:
    @pytest.mark.parametrize(
        "argv, limit",
        [
            (("--transactions", "25000"), 15000),
            (("--arch", "ipa-native", "--transactions", "14601"), 14600),
            (("timeline", "OUT", "--transactions", "50000"), 15000),
        ],
        ids=["report", "report-ipa", "timeline"],
    )
    def test_run_past_the_history_file_is_refused(self, monkeypatch, argv, limit):
        code, out, err = run_obs(monkeypatch, *argv)
        assert code == 2
        assert out == ""
        assert f"limit of {limit} transactions" in err


class TestLoadArtefact:
    def test_other_version_is_refused(self, tmp_path):
        path = tmp_path / "run.json"
        # Version 1 held the result's counters as flat fields.
        path.write_text(json.dumps({"version": 1}))
        with pytest.raises(ValueError, match="version 1.*reads version 2"):
            load_artefact(str(path))
