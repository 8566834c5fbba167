"""``python -m repro obs`` output, pinned byte for byte.

The report text of three runs (``--fast`` on the traditional and the
ipa-native architecture, and the default 2 000 transactions) lives in
``tests/obs/golden/``; the timeline is pinned by its sha256.  A change to
how an observed run is stored or rendered must leave all four unchanged,
and a run artefact must render the same after a trip through JSON.
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.bench.harness import run_experiment
from repro.bench.observe import build_config
from repro.obs import ObserveConfig
from repro.obs.report import load_artefact, render_report

GOLDEN = Path(__file__).parent / "golden"

#: sha256 of ``obs timeline OUT --transactions 200 --channels 4``.
TIMELINE_SHA256 = (
    "de0ad5239f542c59fb07a439112d1f10361752bd013fc71a44b3f909d068edbd"
)


def run_obs(monkeypatch, *argv):
    monkeypatch.setattr(sys, "argv", list(sys.argv))
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(["obs", *argv])
    return code, buffer.getvalue()


@pytest.mark.parametrize(
    "argv, golden",
    [
        (("--fast",), "report_fast.txt"),
        (("--arch", "ipa-native", "--fast"), "report_ipa_native_fast.txt"),
        ((), "report_default.txt"),
    ],
    ids=["fast", "ipa-native-fast", "default"],
)
def test_report_matches_golden(monkeypatch, argv, golden):
    code, out = run_obs(monkeypatch, *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


def test_timeline_matches_golden(monkeypatch, tmp_path):
    out = tmp_path / "timeline.json"
    code, _ = run_obs(
        monkeypatch, "timeline", str(out),
        "--transactions", "200", "--channels", "4",
    )
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == TIMELINE_SHA256


def test_saved_artefact_renders_the_golden(monkeypatch, tmp_path):
    code, out = run_obs(monkeypatch, "--fast", "--out", str(tmp_path))
    assert code == 0
    golden = (GOLDEN / "report_fast.txt").read_text(encoding="utf-8")
    path = tmp_path / "run.json"
    assert out == golden + f"\nrun artefact written to {path}\n"
    assert render_report(load_artefact(str(path))) + "\n" == golden


@pytest.mark.parametrize("arch", ["traditional", "ipa-native"])
def test_render_survives_a_json_round_trip(arch):
    config = build_config(arch, 2000)
    result = run_experiment(config, ObserveConfig(sample_interval_s=0.01))
    artefact = result.artefact({"arch": arch, "seed": config.seed})
    loaded = json.loads(json.dumps(artefact))
    assert render_report(loaded) == render_report(artefact)
