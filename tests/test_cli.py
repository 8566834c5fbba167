"""The ``python -m repro`` command-line front door."""

import io
import json
from contextlib import redirect_stdout

import pytest

import repro.bench.run_all as run_all
from repro.__main__ import main


def run_cli(*argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(list(argv))
    return code, buffer.getvalue()


class TestCli:
    def test_help(self):
        code, out = run_cli("--help")
        assert code == 0
        assert "table1" in out
        # The experiment commands are listed from the section table.
        for command, experiments in run_all.COMMANDS.items():
            assert f"python -m repro {command} " in out
            for experiment in experiments:
                assert f"# {experiment.title}\n" in out

    def test_no_args_prints_help(self):
        code, out = run_cli()
        assert code == 0
        assert "demo" in out

    def test_unknown_command(self):
        code, out = run_cli("frobnicate")
        assert code == 2
        assert "unknown command" in out

    def test_fig3_runs(self):
        code, out = run_cli("fig3")
        assert code == 0
        assert "[2x4]" in out

    def test_fig2_runs(self):
        code, out = run_cli("fig2")
        assert code == 0
        assert "ISPP" in out

    def test_fig1_prints_its_report_block(self, monkeypatch):
        # The command renders the same block, paper reference included,
        # that EXPERIMENTS.md carries for E2.
        monkeypatch.setattr(run_all, "SECTIONS", tuple(run_all.COMMANDS["fig1"]))
        report = run_all.generate()
        code, out = run_cli("fig1")
        assert code == 0
        assert out.startswith("## E2 — Figure 1")
        assert out.strip() == report[report.index("## E2"):].strip()


class TestObsTimeline:
    def test_missing_out_path_exits(self):
        with pytest.raises(SystemExit):
            run_cli("obs", "timeline")

    def test_writes_valid_chrome_trace(self, tmp_path):
        out = tmp_path / "timeline.json"
        code, text = run_cli(
            "obs", "timeline", str(out),
            "--transactions", "120", "--channels", "4",
        )
        assert code == 0
        assert "events written" in text

        trace = json.loads(out.read_text())
        events = trace["traceEvents"]
        assert events, "trace must not be empty"
        for event in events:
            assert event["ph"] in ("X", "M")
            assert event["pid"] == 1
        # One track per channel: a 4-channel run must put channel_op /
        # channel_read events on at least two distinct channel tids.
        channel_tids = {
            e["tid"] for e in events
            if e["ph"] == "X" and e["name"] in ("channel_op", "channel_read")
        }
        assert len(channel_tids) >= 2
        # Metadata names the host track and each populated channel track.
        names = {
            (e["tid"], e["args"]["name"])
            for e in events if e.get("name") == "thread_name"
        }
        assert (0, "host") in names
        for tid in channel_tids:
            assert (tid, f"channel {tid - 2}") in names
