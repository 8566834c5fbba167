"""Longevity accounting regressions.

The E5 report used to print exactly ``1.0x`` for tpcc and tatp.  Two
distinct bugs conspired:

* wear was computed from ``gc_erases`` (GC-attributed only) instead of
  ``flash.block_erases`` (total block erases), dropping savings whenever a
  run's erase traffic was not attributed to GC, and
* zero-erase runs were clamped to a fabricated ratio of 1.0 instead of
  being reported as not-measurable.

These tests pin the fixed semantics with synthetic results whose
expected ratios are non-integral — a clamp or a wrong-counter regress
cannot produce them by accident.
"""

import math

import pytest

from repro.analysis.longevity import (
    MLC_ENDURANCE_CYCLES,
    PSLC_ENDURANCE_CYCLES,
    estimate_longevity,
    lifetime_ratio,
)
from repro.bench.harness import ExperimentResult
from repro.flash.stats import DeviceStats, FlashStats


def synthetic_result(transactions, flash_erases, gc_erases=0):
    """An ExperimentResult with only the wear-relevant counters set."""
    return ExperimentResult(
        "synthetic",
        "synthetic",
        transactions,
        0.0,
        0.0,
        device=DeviceStats(gc_erases=gc_erases),
        flash=FlashStats(block_erases=flash_erases),
    )


class TestEstimate:
    def test_wear_basis_is_total_flash_erases_not_gc_erases(self):
        # 9 total erases of which only 4 were GC-attributed: the old
        # gc_erases basis would halve the apparent wear.
        result = synthetic_result(transactions=1000, flash_erases=9, gc_erases=4)
        est = estimate_longevity(result)
        assert est.erases_per_txn == pytest.approx(0.009)
        assert est.txns_per_block_lifetime == pytest.approx(
            MLC_ENDURANCE_CYCLES / 0.009
        )

    def test_zero_erases_means_infinite_lifetime(self):
        est = estimate_longevity(synthetic_result(1000, flash_erases=0))
        assert est.txns_per_block_lifetime == float("inf")

    def test_zero_transactions_rejected(self):
        with pytest.raises(ValueError):
            estimate_longevity(synthetic_result(0, flash_erases=5))


class TestRatio:
    def test_non_integral_ratio_survives(self):
        # 36 baseline vs 16 IPA erases over equal work: exactly 2.25x.
        # A 1.0 clamp, a rounding-to-int, or the gc_erases basis (which
        # here would give 36/0 -> inf) would all miss this value.
        base = synthetic_result(4000, flash_erases=36, gc_erases=36)
        ipa = synthetic_result(4000, flash_erases=16, gc_erases=0)
        assert lifetime_ratio(ipa, base) == pytest.approx(2.25)

    def test_ratio_close_to_one_is_not_snapped(self):
        base = synthetic_result(4000, flash_erases=330)
        ipa = synthetic_result(4000, flash_erases=318)
        ratio = lifetime_ratio(ipa, base)
        assert ratio == pytest.approx(330 / 318)
        assert ratio != 1.0

    def test_both_erase_free_is_nan_not_one(self):
        base = synthetic_result(4000, flash_erases=0)
        ipa = synthetic_result(4000, flash_erases=0)
        assert math.isnan(lifetime_ratio(ipa, base))

    def test_only_ipa_erase_free_is_inf(self):
        base = synthetic_result(4000, flash_erases=10)
        ipa = synthetic_result(4000, flash_erases=0)
        assert lifetime_ratio(ipa, base) == float("inf")

    def test_only_baseline_erase_free_is_zero(self):
        base = synthetic_result(4000, flash_erases=0)
        ipa = synthetic_result(4000, flash_erases=10)
        assert lifetime_ratio(ipa, base) == 0.0

    def test_endurance_scaling_applies(self):
        base = synthetic_result(1000, flash_erases=20)
        ipa = synthetic_result(1000, flash_erases=20)
        ratio = lifetime_ratio(
            ipa,
            base,
            ipa_endurance=PSLC_ENDURANCE_CYCLES,
            baseline_endurance=MLC_ENDURANCE_CYCLES,
        )
        assert ratio == pytest.approx(
            PSLC_ENDURANCE_CYCLES / MLC_ENDURANCE_CYCLES
        )
