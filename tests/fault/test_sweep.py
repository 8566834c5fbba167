"""Seeded crash-point sweeps: the acceptance gate of the fault harness.

Each sampled point runs a full crash / fresh-remount / differential
cycle (see :mod:`repro.fault.harness`).  The per-backend point count is
small by default so the tier-1 suite stays fast; CI raises it via the
``FAULT_SWEEP_POINTS`` environment variable to cover >= 200 points
across the four backends.
"""

import os

import pytest

from repro.fault import fault_spec, run_crash_point, run_oracle, run_sweep
from repro.fault.harness import N_UPDATE_TXNS, make_plan, shadow_state
from repro.stack import MOUNTABLE
from tests.fault import ftl_id

POINTS = int(os.environ.get("FAULT_SWEEP_POINTS", "8"))


def _fail_report(result) -> str:
    lines = [
        f"{result.backend}: {len(result.failures)}/{result.points} crash "
        f"points failed recovery (ops_total={result.ops_total})"
    ]
    lines += [
        f"  point={f.crash_point} seed-replayable op='{f.crash_op}' "
        f"completed={f.completed} durable={f.durable_frames}: {f.detail}"
        for f in result.failures[:10]
    ]
    return "\n".join(lines)


class TestOracle:
    @pytest.mark.parametrize("backend", MOUNTABLE, ids=ftl_id)
    def test_crash_free_run_matches_shadow(self, backend):
        ops_total, state = run_oracle(fault_spec(backend))
        assert state == shadow_state(make_plan(), N_UPDATE_TXNS)
        assert ops_total > 0


class TestSweep:
    @pytest.mark.parametrize("backend", MOUNTABLE, ids=ftl_id)
    def test_seeded_crash_points_recover_to_committed_prefix(self, backend):
        result = run_sweep(backend, POINTS)
        assert result.ok, _fail_report(result)
        assert result.points == min(POINTS, result.ops_total)

    def test_crash_point_outcome_is_deterministic(self):
        backend = fault_spec("ipa-native")
        a = run_crash_point(backend, 37, seed=11)
        b = run_crash_point(backend, 37, seed=11)
        assert a == b
        assert a.ok, a.detail

    def test_first_op_crash_recovers_to_checkpoint(self):
        backend = fault_spec("traditional")
        outcome = run_crash_point(backend, 1, seed=5)
        assert outcome.ok, outcome.detail
        assert outcome.completed == 0
        assert outcome.durable_frames == 0
