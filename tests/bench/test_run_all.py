"""The EXPERIMENTS.md generator: --jobs parity, failures, _capture.

The full fast run, with every claim, is tests/bench/test_paper_claims.py.
"""

import pytest

import repro.bench.run_all as run_all
from repro.bench.parallel import WorkerFailure
from repro.bench.run_all import _capture, generate


def test_generate_jobs_parity(monkeypatch):
    # Sections are self-seeded, so the report must be byte-identical at
    # any job count.  Two cheap sections keep this out of @slow; the
    # full set differs only in scale, not mechanism.
    (fig1,), (fig3,) = run_all.COMMANDS["fig1"], run_all.COMMANDS["fig3"]
    monkeypatch.setattr(run_all, "SECTIONS", (fig1, fig3))
    assert generate(fast=True, jobs=1) == generate(fast=True, jobs=2)


def test_generate_failure_names_section(monkeypatch, capsys):
    def _broken(scale):
        print("partial progress line")
        raise RuntimeError("mid-section crash")

    (fig1,) = run_all.COMMANDS["fig1"]
    broken = fig1._replace(title="X9 — broken", run=_broken)
    monkeypatch.setattr(run_all, "SECTIONS", (fig1, broken))
    with pytest.raises(WorkerFailure, match="section X9"):
        generate(fast=True, jobs=1)


def test_capture_returns_result_and_stdout():
    def section():
        print("progress")
        return "body"

    result, stray = _capture("demo", section)
    assert result == "body"
    assert stray == "progress"


def test_capture_attaches_partial_stdout_on_failure(capsys):
    def section():
        print("half the table")
        raise ValueError("boom")

    with pytest.raises(ValueError) as info:
        _capture("E99 — demo", section)
    # The partial output is preserved on the exception and echoed to
    # stderr with the failing section's name, not silently discarded.
    assert info.value.section == "E99 — demo"
    assert info.value.partial_stdout == "half the table"
    err = capsys.readouterr().err
    assert "section failed: E99 — demo" in err
    assert "half the table" in err
