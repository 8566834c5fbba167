"""Analysis helpers: update-size stats, write amplification, longevity."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.longevity import (
    LongevityEstimate,
    estimate_longevity,
    lifetime_ratio,
)
from repro.analysis.update_sizes import analyze_update_sizes
from repro.analysis.write_amplification import write_amplification
from repro.bench.harness import ExperimentResult
from repro.flash.stats import DeviceStats, FlashStats
from repro.storage.buffer import BufferStats
from repro.storage.manager import ManagerStats


def result_stub(
    transactions=1000, flash_erases=10, gc_erases=10, **device
) -> ExperimentResult:
    """A run of 100 whole-page host writes of 8 KiB, 20 GC page
    migrations on top (120 pages programmed) and 10 000 net bytes
    modified; ``device`` overrides :class:`DeviceStats` fields."""
    return ExperimentResult(
        "stub",
        "stub",
        transactions,
        1.0,
        1000.0,
        device=DeviceStats(
            **{
                "host_writes": 100,
                "host_bytes_written": 100 * 8192,
                "out_of_place_writes": 100,
                "gc_page_migrations": 20,
                "gc_erases": gc_erases,
                **device,
            }
        ),
        flash=FlashStats(
            page_programs=120,
            bytes_programmed=120 * 8192,
            block_erases=flash_erases,
        ),
        storage=ManagerStats(oop_flushes=100, net_bytes_updated=10_000),
        pool=BufferStats(dirty_evictions=100),
    )


class TestUpdateSizes:
    def test_small_updates_detected(self):
        report = analyze_update_sizes([5, 10, 50, 90, 200, 3, 8])
        assert report.samples == 7
        assert report.fraction_under_100b == pytest.approx(6 / 7)
        assert report.meets_paper_claim()

    def test_large_updates(self):
        report = analyze_update_sizes([500] * 10)
        assert report.fraction_under_100b == 0.0
        assert not report.meets_paper_claim()

    def test_histogram_partitions_everything(self):
        data = list(range(0, 5000, 7))
        report = analyze_update_sizes(data)
        assert sum(count for _label, count, _f in report.histogram) == len(data)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            analyze_update_sizes([])

    @given(st.lists(st.integers(min_value=0, max_value=8192), min_size=1))
    def test_statistics_consistent(self, data):
        report = analyze_update_sizes(data)
        assert 0.0 <= report.fraction_under_100b <= 1.0
        assert report.median_bytes <= report.p90_bytes or len(set(data)) == 1
        assert min(data) <= report.mean_bytes <= max(data)


class TestWriteAmplification:
    def test_dbms_wa(self):
        result = result_stub(host_bytes_written=819200)
        report = write_amplification(result)
        assert report.dbms_wa == pytest.approx(81.92)

    def test_device_wa_includes_migrations(self):
        result = result_stub()
        report = write_amplification(result)
        # 20 migrated pages on top of 100 host pages => 1.2x device WA.
        assert report.device_wa == pytest.approx(1.2)

    def test_explicit_flash_bytes(self):
        # Device WA is the measured flash bytes over the host's bytes,
        # whatever the page count suggests.
        result = result_stub()
        result.flash.bytes_programmed = 2 * 100 * 8192
        report = write_amplification(result)
        assert report.device_wa == pytest.approx(2.0)
        assert report.end_to_end_wa == pytest.approx(2 * 100 * 8192 / 10_000)


class TestLongevity:
    def test_estimate(self):
        est = estimate_longevity(result_stub(), endurance_cycles=3000)
        assert isinstance(est, LongevityEstimate)
        assert est.erases_per_txn == pytest.approx(0.01)
        assert est.txns_per_block_lifetime == pytest.approx(300_000)

    def test_no_erases_is_infinite(self):
        # Wear basis is *total* flash erases; GC attribution is
        # irrelevant to endurance (see repro.analysis.longevity).
        est = estimate_longevity(result_stub(flash_erases=0, gc_erases=0))
        assert est.txns_per_block_lifetime == float("inf")

    def test_lifetime_ratio_doubles_with_half_erases(self):
        base = result_stub(flash_erases=20)
        ipa = result_stub(flash_erases=10)
        assert lifetime_ratio(ipa, base) == pytest.approx(2.0)

    def test_gc_attribution_does_not_affect_wear(self):
        # Same total erases, different GC attribution: same lifetime.
        a = result_stub(flash_erases=10, gc_erases=10)
        b = result_stub(flash_erases=10, gc_erases=0)
        assert lifetime_ratio(a, b) == pytest.approx(1.0)

    def test_zero_transactions_rejected(self):
        with pytest.raises(ValueError):
            estimate_longevity(result_stub(transactions=0))
