"""Failover sweeps: kill a replicated primary, promote, verify the prefix.

Each sampled point runs the full kill / promote / differential cycle of
:mod:`repro.fault.failover` — the primary torn mid-traffic at a seeded
op count, in-flight ops reverted on all of its chips, the standby
promoted over *fresh* Python objects and checked against the
acknowledged-transaction prefix of the shadow oracle.  The per-backend
point count is small by default so the tier-1 suite stays fast; the
``replication-smoke`` CI job raises it via ``FAILOVER_SWEEP_POINTS`` to
cover >= 200 points across the four backends.
"""

import os

import pytest

from repro.fault import fault_spec, run_failover_point, run_failover_sweep
from repro.fault.failover import (
    GROUP_SIZE,
    run_replicated_digests,
    run_replication_free_digest,
)
from repro.stack import MOUNTABLE
from tests.fault import ftl_id

POINTS = int(os.environ.get("FAILOVER_SWEEP_POINTS", "4"))


def _fail_report(result) -> str:
    lines = [
        f"{result.backend}: {len(result.failures)}/{result.points} failover "
        f"points lost or resurrected transactions "
        f"(ops_total={result.ops_total})"
    ]
    lines += [
        f"  point={f.crash_point} seed-replayable op='{f.crash_op}' "
        f"committed={f.committed} standby_durable={f.standby_durable}: "
        f"{f.detail}"
        for f in result.failures[:10]
    ]
    return "\n".join(lines)


class TestDigestIdentity:
    @pytest.mark.parametrize("backend", MOUNTABLE, ids=ftl_id)
    def test_replication_never_perturbs_the_primary(self, backend):
        free = run_replication_free_digest(fault_spec(backend))
        primary, standby = run_replicated_digests(fault_spec(backend))
        assert primary == free
        assert standby == primary


class TestFailoverSweep:
    @pytest.mark.parametrize("backend", MOUNTABLE, ids=ftl_id)
    def test_promotion_retains_exactly_the_acknowledged_prefix(
        self, backend
    ):
        result = run_failover_sweep(backend, POINTS)
        assert result.ok, _fail_report(result)
        assert result.points == min(POINTS, result.ops_total)

    def test_failover_point_outcome_is_deterministic(self):
        backend = fault_spec("ipa-native")
        a = run_failover_point(backend, 57, seed=99)
        b = run_failover_point(backend, 57, seed=99)
        assert a == b
        assert a.ok, a.detail

    def test_committed_count_is_group_aligned(self):
        # Transactions acknowledge per WAL commit group, so the
        # committed prefix after any crash is a whole number of groups.
        outcome = run_failover_point(fault_spec("ipa-blockdev"), 23, seed=7)
        assert outcome.ok, outcome.detail
        assert outcome.committed % GROUP_SIZE == 0
        assert outcome.standby_durable == outcome.committed
        assert outcome.groups_acked * GROUP_SIZE == outcome.committed

    def test_first_op_crash_promotes_to_checkpoint(self):
        outcome = run_failover_point(
            fault_spec("traditional"), 1, seed=5
        )
        assert outcome.ok, outcome.detail
        assert outcome.committed == 0
        assert outcome.standby_durable == 0
