"""Write-attribution ledger, death-time tracking, and conservation.

Unit tests drive :class:`WriteLedger` / :class:`LifetimeTracker` against
a bare chip and block manager; the integration tests run seeded TPC-B
through every backend with ``REPRO_SANITIZE=1`` so the sanitizer's
in-line conservation check (re-verified at every erase) is armed while
the final assertion checks the ledger end to end.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.flash.sanitize import ENV_VAR, PhysicsViolationError, Sanitizer
from repro.flash.stats import DeviceStats
from repro.ftl.gc import BlockManager
from repro.obs.ledger import (
    ERASE_COUNT_BUCKETS,
    NULL_LEDGER,
    NULL_LIFETIMES,
    WRITE_CAUSES,
    LifetimeTracker,
    WriteLedger,
    erase_count_histogram,
)

GEO = FlashGeometry(page_size=512, oob_size=64, pages_per_block=8, blocks=8)


def _chip() -> FlashChip:
    return FlashChip(GEO)


def _watched(chip: FlashChip) -> WriteLedger:
    ledger = WriteLedger()
    chip.ledger = ledger
    ledger.watch_chip(chip)
    return ledger


class TestCauseStack:
    def test_default_is_unattributed(self):
        assert WriteLedger().current_cause == "unattributed"

    def test_cause_scope_nests_and_restores(self):
        ledger = WriteLedger()
        with ledger.cause("wal"):
            assert ledger.current_cause == "wal"
            with ledger.cause("gc_migration"):
                assert ledger.current_cause == "gc_migration"
            assert ledger.current_cause == "wal"
        assert ledger.current_cause == "unattributed"

    def test_scope_pops_on_exception(self):
        ledger = WriteLedger()
        with pytest.raises(RuntimeError):
            with ledger.cause("wal"):
                raise RuntimeError("boom")
        assert ledger.current_cause == "unattributed"

    def test_unknown_cause_gets_a_record(self):
        ledger = WriteLedger()
        with ledger.cause("experimental"):
            ledger.on_program(64, reprogram=False, partial=False)
        assert ledger.by_cause["experimental"].programs == 1


class TestCharging:
    def test_op_kind_classification(self):
        ledger = WriteLedger()
        with ledger.cause("host_heap"):
            ledger.on_program(512, reprogram=False, partial=False)
            ledger.on_program(512, reprogram=True, partial=False)
            ledger.on_program(16, reprogram=True, partial=True)
        record = ledger.by_cause["host_heap"]
        assert record.programs == 1
        assert record.reprograms == 1
        assert record.partial_programs == 1
        assert record.bytes == 512 + 512 + 16

    def test_erase_charged_to_current_cause(self):
        ledger = WriteLedger()
        with ledger.cause("gc_migration"):
            ledger.on_erase()
        assert ledger.by_cause["gc_migration"].erases == 1

    def test_shift_bytes_conserves_totals(self):
        ledger = WriteLedger()
        with ledger.cause("host_heap"):
            ledger.on_program(512, reprogram=False, partial=False)
            ledger.shift_bytes("oob_meta", 17)
        assert ledger.by_cause["host_heap"].bytes == 512 - 17
        assert ledger.by_cause["oob_meta"].bytes == 17
        # the op stays with the carrier
        assert ledger.by_cause["oob_meta"].programs == 0
        assert ledger.totals()["bytes"] == 512

    def test_records_order_known_causes_first(self):
        ledger = WriteLedger()
        causes = [r.cause for r in ledger.records()]
        assert tuple(causes) == WRITE_CAUSES


class TestChipConservation:
    def test_chip_programs_mirror_into_ledger(self):
        chip = _chip()
        ledger = _watched(chip)
        with ledger.cause("host_heap"):
            chip.program_page(0, b"\xf0" * GEO.page_size)
            chip.reprogram_page(0, b"\x70" * GEO.page_size)
        chip.erase_block(0)  # outside any scope -> unattributed
        assert ledger.by_cause["host_heap"].programs == 1
        assert ledger.by_cause["host_heap"].reprograms == 1
        assert ledger.by_cause["unattributed"].erases == 1
        assert ledger.conservation_errors() == []

    def test_watch_chip_baselines_deltas(self):
        chip = _chip()
        chip.program_page(0, b"\xf0" * GEO.page_size)  # pre-attach traffic
        ledger = _watched(chip)
        assert ledger.physical_totals()["programs"] == 0
        chip.program_page(1, b"\x0f" * GEO.page_size)
        assert ledger.physical_totals()["programs"] == 1
        assert ledger.conservation_errors() == []

    def test_watch_chip_is_idempotent(self):
        chip = _chip()
        ledger = _watched(chip)
        ledger.watch_chip(chip)
        chip.program_page(0, b"\xf0" * GEO.page_size)
        assert ledger.physical_totals()["programs"] == 1

    def test_mismatch_produces_readable_errors(self):
        chip = _chip()
        ledger = _watched(chip)
        chip.ledger = NULL_LEDGER  # detach: chip counts, ledger doesn't
        chip.program_page(0, b"\xf0" * GEO.page_size)
        errors = ledger.conservation_errors()
        assert any("programs" in e for e in errors)
        assert any("bytes" in e for e in errors)

    def test_sanitizer_rejects_broken_conservation(self):
        chip = _chip()
        ledger = _watched(chip)
        chip.ledger = NULL_LEDGER
        chip.program_page(0, b"\xf0" * GEO.page_size)
        with pytest.raises(PhysicsViolationError, match="conservation"):
            Sanitizer().check_ledger(ledger)

    def test_sanitize_checks_at_erase(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "1")
        chip = _chip()
        ledger = _watched(chip)
        with ledger.cause("host_heap"):
            chip.program_page(0, b"\xf0" * GEO.page_size)
        chip.erase_block(0)  # conserved: must not raise
        ledger.by_cause["host_heap"].bytes += 1  # corrupt
        with ledger.cause("gc_migration"):
            chip.program_page(0, b"\xf0" * GEO.page_size)
        with pytest.raises(PhysicsViolationError, match="conservation"):
            chip.erase_block(0)


class TestBlockManagerAttribution:
    def _stack(self):
        chip = _chip()
        manager = BlockManager(chip, list(range(GEO.blocks)), DeviceStats())
        ledger = _watched(chip)
        manager.ledger = ledger
        return chip, manager, ledger

    def test_gc_traffic_lands_in_gc_cause(self):
        chip, manager, ledger = self._stack()
        lifetimes = LifetimeTracker(chip.clock)
        manager.lifetimes = lifetimes
        with ledger.cause("host_heap"):
            for round_number in range(8):
                for lba in range(manager.logical_pages // 2):
                    manager.write(lba, bytes([round_number]) * GEO.page_size)
        assert chip.stats.block_erases > 0
        gc = ledger.by_cause["gc_migration"]
        assert gc.erases > 0
        assert ledger.by_cause["host_heap"].programs > 0
        assert ledger.conservation_errors() == []
        # every GC migration moved a page without a logical death
        assert lifetimes.deaths > 0
        assert lifetimes.live_pages == len(manager.mapping)

    def test_oob_meta_bytes_split_out(self):
        chip, manager, ledger = self._stack()
        if not manager._oob_meta_enabled:
            pytest.skip("OOB mapping records disabled for this geometry")
        with ledger.cause("host_heap"):
            manager.write(0, b"\xaa" * GEO.page_size)
        assert ledger.by_cause["oob_meta"].bytes > 0
        assert ledger.by_cause["oob_meta"].programs == 0
        assert ledger.conservation_errors() == []


class TestNullObjects:
    def test_null_ledger_is_inert(self):
        NULL_LEDGER.push_cause("host_heap")
        NULL_LEDGER.on_program(512, reprogram=False, partial=False)
        NULL_LEDGER.on_erase()
        NULL_LEDGER.shift_bytes("oob_meta", 17)
        NULL_LEDGER.pop_cause()
        assert not NULL_LEDGER.enabled
        assert all(v == 0 for v in NULL_LEDGER.totals().values())

    def test_null_lifetimes_is_inert(self):
        NULL_LIFETIMES.on_write(object(), 0, "host_heap")
        NULL_LIFETIMES.on_trim(object(), 0)
        assert not NULL_LIFETIMES.enabled

    def test_chip_default_is_null_ledger(self):
        assert _chip().ledger is NULL_LEDGER


class TestLifetimeTracker:
    class _Clock:
        def __init__(self):
            self.now_us = 0.0

    def test_rewrite_observes_death(self):
        clock = self._Clock()
        tracker = LifetimeTracker(clock)
        manager = object()
        tracker.on_write(manager, 7, "host_heap")
        clock.now_us = 1_500.0
        tracker.on_write(manager, 7, "host_heap")
        hist = tracker.by_cause["host_heap"]
        assert hist.count == 1
        assert hist.sum == 1_500.0
        assert tracker.deaths == 1
        assert tracker.live_pages == 1

    def test_trim_observes_death_without_rebirth(self):
        clock = self._Clock()
        tracker = LifetimeTracker(clock)
        manager = object()
        tracker.on_write(manager, 3, "host_heap")
        clock.now_us = 10.0
        tracker.on_trim(manager, 3)
        assert tracker.deaths == 1
        assert tracker.live_pages == 0
        tracker.on_trim(manager, 3)  # double trim: no phantom death
        assert tracker.deaths == 1

    def test_lifetime_split_by_birth_cause(self):
        clock = self._Clock()
        tracker = LifetimeTracker(clock)
        manager = object()
        tracker.on_write(manager, 1, "wal")
        clock.now_us = 50.0
        tracker.on_write(manager, 1, "host_heap")  # death charged to wal
        assert tracker.by_cause["wal"].count == 1
        assert tracker.by_cause["host_heap"].count == 0

    def test_unknown_cause_folds_to_unattributed(self):
        clock = self._Clock()
        tracker = LifetimeTracker(clock)
        manager = object()
        tracker.on_write(manager, 1, "no_such_cause")
        clock.now_us = 5.0
        tracker.on_trim(manager, 1)
        assert tracker.by_cause["unattributed"].count == 1

    def test_managers_do_not_collide(self):
        clock = self._Clock()
        tracker = LifetimeTracker(clock)
        a, b = object(), object()
        tracker.on_write(a, 0, "host_heap")
        tracker.on_write(b, 0, "host_heap")  # same LBA, other region
        assert tracker.deaths == 0
        assert tracker.live_pages == 2

    def test_aggregate_histogram_fed(self):
        from repro.obs.metrics import Histogram

        clock = self._Clock()
        aggregate = Histogram("lba_lifetime_us", "", bounds=(100.0,))
        tracker = LifetimeTracker(clock, aggregate=aggregate)
        manager = object()
        tracker.on_write(manager, 0, "host_heap")
        clock.now_us = 42.0
        tracker.on_trim(manager, 0)
        assert aggregate.count == 1
        assert aggregate.sum == 42.0


class TestWearHistogram:
    def test_counts_every_block(self):
        chip = _chip()
        chip.program_page(0, b"\xf0" * GEO.page_size)
        chip.erase_block(0)
        chip.erase_block(0)
        hist = erase_count_histogram(chip.blocks)
        assert hist.count == GEO.blocks
        assert hist.sum == 2
        assert hist.bounds == ERASE_COUNT_BUCKETS


ARCHS = ("traditional", "ipa-blockdev", "ipa-native")


def _observed_run(monkeypatch, arch, transactions=300, **overrides):
    from repro.bench.harness import run_experiment
    from repro.bench.observe import build_config

    monkeypatch.setenv(ENV_VAR, "1")
    config = build_config(arch, transactions)
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return run_experiment(config, observe=True)


@pytest.mark.parametrize("arch", ARCHS)
class TestSeededConservation:
    """TPC-B per backend: sanitize armed, ledger conserved end to end."""

    def test_conserved_and_attributed(self, monkeypatch, arch):
        result = _observed_run(monkeypatch, arch)
        ledger = result.observation.ledger
        assert ledger.enabled
        assert ledger.conservation_errors() == []
        assert ledger.by_cause["host_heap"].programs > 0
        assert ledger.totals()["bytes"] > 0
        # death times measured on the simulated clock
        assert result.observation.lifetimes.deaths > 0


class TestBackendSpecificAttribution:
    def test_native_delta_writes_count_as_partials(self, monkeypatch):
        result = _observed_run(monkeypatch, "ipa-native")
        totals = result.observation.ledger.totals()
        assert totals["partial_programs"] > 0

    def test_wal_cause_on_log_chip(self, monkeypatch):
        result = _observed_run(
            monkeypatch, "traditional", transactions=200, with_wal=True
        )
        ledger = result.observation.ledger
        wal = ledger.by_cause["wal"]
        assert wal.partial_programs + wal.programs > 0
        assert ledger.conservation_errors() == []

    def test_multi_channel_leaf_chips_not_double_counted(self, monkeypatch):
        result = _observed_run(
            monkeypatch, "traditional", transactions=200, channels=4
        )
        obs = result.observation
        assert obs.ledger.conservation_errors() == []
        parsed_keys = obs.registry.as_dict()
        assert 'channel_busy_us{channel="0"}' in parsed_keys
        assert 'wa_bytes{cause="host_heap"}' in parsed_keys

    def test_report_renders_waterfall(self, monkeypatch):
        from repro.obs.report import render_report

        result = _observed_run(monkeypatch, "traditional", transactions=200)
        text = render_report(result)
        assert "Write-amplification waterfall — conserved" in text
        assert "Block wear" in text
        assert "LBA death times" in text
