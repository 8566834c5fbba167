"""Every shipped example must run end-to-end (smoke + key assertions).

Examples are the public face of the library; breaking one silently is a
release blocker, so they execute inside the test suite (scaled down via
argv where they accept flags).
"""

import io
import runpy
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, argv: list | None = None) -> str:
    """Execute an example as __main__; returns its stdout."""
    buffer = io.StringIO()
    old_argv = sys.argv
    sys.argv = [name] + (argv or [])
    try:
        with redirect_stdout(buffer):
            runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = old_argv
    return buffer.getvalue()


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "write_delta calls : 1" in out
        assert "pages invalidated : 0" in out

    def test_ispp_microscope(self):
        out = run_example("ispp_microscope.py")
        assert "rejected by the cell model" in out
        assert "clearing more 1s to 0s" in out

    def test_crash_recovery(self):
        out = run_example("crash_recovery.py")
        assert "balance mismatches after recovery : 0" in out
        assert "-> True" in out

    def test_telecom_hotspot(self):
        out = run_example("telecom_hotspot.py")
        assert "eviction share via IPA" in out
        assert "write_delta commands" in out

    @pytest.mark.slow
    def test_region_advisor(self):
        out = run_example("region_advisor.py")
        assert "IPA off" in out  # history stays plain
        assert "[2x4]" in out  # balance tables get the paper's scheme
        assert "IPA eviction share" in out

    @pytest.mark.slow
    def test_demo_scenarios(self):
        out = run_example(
            "demo_scenarios.py", ["--workload", "tpcb", "--duration", "0.4"]
        )
        assert "Demo-Scenario 1" in out
        assert "Demo-Scenario 3" in out
        assert "Transactional Throughput" in out

    @pytest.mark.slow
    def test_live_stats(self):
        out = run_example("live_stats.py")
        assert "final:" in out
        assert "TPS" in out

    @pytest.mark.slow
    def test_nxm_tuning(self):
        out = run_example("nxm_tuning.py")
        assert "[2x4]" in out
        assert "Best throughput" in out
