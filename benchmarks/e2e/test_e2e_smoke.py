"""Self-test of the end-to-end benchmark.

Not part of tier-1 (``testpaths`` is ``tests``); run it explicitly::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import importlib.util
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from benchmarks.e2e.layers import FrameClassifier, layer_of_filename
from benchmarks.e2e.report import FAILED_SHARE, compare
from benchmarks.e2e.spec import ROOT, WORKLOADS, load_contract, ops_for

NAME = re.compile(r"[A-Za-z0-9_.-]+")
CONTRACT = load_contract()


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory) -> dict:
    """All four workloads at 3 % size, two plain repetitions each."""
    out = tmp_path_factory.mktemp("e2e") / "run.json"
    started = time.perf_counter()
    subprocess.run(
        [
            sys.executable, "-m", "benchmarks.e2e",
            "--scale", "0.03", "--reps", "2", "--out", str(out),
        ],
        cwd=ROOT, env=_env(), check=True, timeout=240,
        stdout=subprocess.DEVNULL,
    )
    document = json.loads(out.read_text())
    document["elapsed_s"] = time.perf_counter() - started
    return document


def test_smoke_run_is_quick_and_correct(smoke_run: dict) -> None:
    assert smoke_run["elapsed_s"] < 90
    assert list(smoke_run["workloads"]) == list(WORKLOADS)
    for name, summary in smoke_run["workloads"].items():
        assert summary["errors"] == [], name
        assert summary["failed"] == 0, name
        assert summary["end_to_end"]["failed_share"] == 0.0, name
        assert summary["attempted"] >= 2 * ops_for(name, 0.03)


def test_every_contract_metric_is_reported_and_nothing_else(smoke_run: dict) -> None:
    end_to_end = {m["name"] for m in CONTRACT["end_to_end"]} | {FAILED_SHARE["name"]}
    per_layer = {m["name"] for m in CONTRACT["per_layer"]}
    for name, summary in smoke_run["workloads"].items():
        assert set(summary["end_to_end"]) == end_to_end, name
        assert set(summary["per_layer"]) == per_layer, name


def test_a_bypassed_layer_reads_zero_not_missing(smoke_run: dict) -> None:
    ftl_only = smoke_run["workloads"]["ftl_overwrite_trad"]["per_layer"]
    for layer in ("workloads", "engine", "storage", "core", "service"):
        assert ftl_only[f"{layer}.self_share"] == 0.0
        assert ftl_only[f"{layer}.pycalls_per_op"] == 0.0
    for name, summary in smoke_run["workloads"].items():
        has_wal = name == "svc_ycsb_a_2shard"
        layers = summary["per_layer"]
        assert (layers["engine.wal_records"] > 0) == has_wal, name
        assert (layers["engine.wal_incl_us_per_op"] > 0) == has_wal, name


def test_a_run_agrees_with_itself_under_compare(smoke_run: dict) -> None:
    text, verdicts = compare(smoke_run, smoke_run, CONTRACT)
    # At 3 % size two repetitions can spread wider than a bound
    # ("unresolved"), but nothing may read as moved.
    assert set(verdicts) <= {"same", "unresolved"}, text
    assert "0 differ" in text
    for name in WORKLOADS:
        assert name in text


@pytest.mark.parametrize("trace", [0, 1])
def test_contract_entry_point_prints_contract_metrics(trace: int) -> None:
    done = subprocess.run(
        [
            sys.executable, "benchmarks/e2e/run.py",
            "--workload", "ftl_overwrite_trad", "--seed", "3",
            "--seconds", "0.2", "--trace", str(trace),
        ],
        cwd=ROOT, env=_env(), check=True, timeout=120,
        stdout=subprocess.PIPE, text=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    section = CONTRACT["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in section}
    for spec in section:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]


def test_contract_names_and_units_are_well_formed() -> None:
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in CONTRACT[key]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    setup = [m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


def test_frame_classifier_maps_files_to_layers() -> None:
    assert layer_of_filename("/x/src/repro/flash/chip.py") == "flash"
    assert layer_of_filename("/x/src/repro/storage/manager.py") == "storage"
    assert layer_of_filename("/x/src/repro/bench/harness.py") == "bench"
    assert layer_of_filename("/x/src/repro/__init__.py") is None
    assert layer_of_filename("/usr/lib/python3.11/contextlib.py") is None
    assert layer_of_filename(str(Path(__file__))) == "bench"


def test_library_frames_are_charged_to_their_nearest_repro_caller() -> None:
    class Code:
        def __init__(self, filename: str) -> None:
            self.co_filename = filename

    class Frame:
        def __init__(self, filename: str, back: "Frame | None") -> None:
            self.f_code = Code(filename)
            self.f_back = back

    loop = Frame(str(ROOT / "benchmarks/e2e/workloads.py"), None)
    core = Frame("/x/src/repro/core/tracker.py", loop)
    numpy = Frame("/site-packages/numpy/core/fromnumeric.py", core)
    stdlib = Frame("/usr/lib/python3.11/contextlib.py", numpy)
    classifier = FrameClassifier()
    assert classifier.of_frame(stdlib) == "core"
    assert classifier.of_frame(numpy) == "core"
    assert classifier.of_frame(loop) == "bench"
    assert classifier.of_frame(Frame("/usr/lib/python3.11/runpy.py", None)) == "bench"


def test_benchmark_sources_are_lint_clean() -> None:
    """``ruff check benchmarks`` in CI; reprolint R5 mirrors its rule set."""
    lint = [sys.executable, "-m", "repro.lint", "--select", "R5", "benchmarks/e2e"]
    subprocess.run(lint, cwd=ROOT, env=_env(), check=True, timeout=120)
    if importlib.util.find_spec("ruff") is not None:
        subprocess.run(
            [sys.executable, "-m", "ruff", "check", "benchmarks/e2e"],
            cwd=ROOT, check=True, timeout=120,
        )
