"""Region advisor: per-table IPA recommendations from update profiles."""

import numpy as np

from repro.analysis.advisor import advise, advise_table, render_advice
from repro.bench.harness import ExperimentConfig, build_stack
from repro.core.config import IPA_DISABLED, IpaScheme
from repro.flash.modes import FlashMode
from repro.workloads.tpcb import TpcbWorkload


class TestAdviseTable:
    def test_small_updates_get_ipa(self):
        advice = advise_table("acct", [2, 3, 1, 4, 2] * 10)
        assert advice.scheme != IPA_DISABLED
        assert advice.scheme.m_bytes >= 4
        assert advice.scheme.n_records in (2, 4)

    def test_no_updates_means_no_ipa(self):
        advice = advise_table("history", [])
        assert advice.scheme == IPA_DISABLED
        assert "no updates" in advice.reason

    def test_small_sample_withheld(self):
        advice = advise_table("rare", [3, 3])
        assert advice.scheme == IPA_DISABLED
        assert "insufficient" in advice.reason

    def test_huge_updates_rejected(self):
        advice = advise_table("blob", [200] * 50)
        assert advice.scheme == IPA_DISABLED
        assert "exceeds" in advice.reason

    def test_m_covers_p95(self):
        sizes = [2] * 90 + [9] * 10  # p95 = 9
        advice = advise_table("t", sizes)
        assert advice.scheme.m_bytes >= 8

    def test_hot_pages_get_bigger_n(self):
        advice = advise_table("hot", [2] * 50, dirty_ops_per_eviction=3.0)
        assert advice.scheme.n_records == 4

    def test_scheme_is_valid(self):
        advice = advise_table("t", [15] * 50)
        assert isinstance(advice.scheme, IpaScheme)  # M=15 is the cap


class TestAdviseDatabase:
    def test_tpcb_profile(self):
        """On TPC-B the advisor must: recommend IPA for the three
        balance tables, leave the insert-only history alone."""
        workload = TpcbWorkload(
            scale=1, accounts_per_branch=2000, history_pages=100
        )
        db, _manager = build_stack(
            ExperimentConfig(
                workload=workload,
                architecture="traditional",
                mode=FlashMode.SLC,
                buffer_pages=16,
            )
        )
        rng = np.random.default_rng(5)
        workload.build(db, rng)
        # Profile a representative workload window: the one-time load's
        # insert operations are not steady-state behaviour.
        db.manager.stats.per_file_op_sizes.clear()
        for _ in range(800):
            workload.transaction(db, rng)

        advice = {a.table: a for a in advise(db)}
        assert advice["account"].scheme != IPA_DISABLED
        assert advice["teller"].scheme != IPA_DISABLED
        assert advice["branch"].scheme != IPA_DISABLED
        assert advice["history"].scheme == IPA_DISABLED
        # Balance updates are a few bytes: a modest M suffices.
        assert advice["account"].scheme.m_bytes <= 8

    def test_render(self):
        advice = [advise_table("a", [2] * 30), advise_table("b", [])]
        text = render_advice(advice)
        assert "Region advisor" in text
        assert "IPA off" in text
