"""Physics sanitizer: env gating, missed-validation detection, and the
FTL-side conservation/bijectivity audits."""

from __future__ import annotations

import pytest

from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.flash.sanitize import (
    ENV_VAR,
    NULL_SANITIZER,
    PhysicsViolationError,
    Sanitizer,
    sanitizer_from_env,
)
from repro.ftl.page_mapping import PageMappingFtl

GEO = FlashGeometry(page_size=512, oob_size=64, pages_per_block=8, blocks=8)


def _chip() -> FlashChip:
    return FlashChip(GEO)


def _manager(chip: FlashChip) -> PageMappingFtl:
    return PageMappingFtl(chip)


class TestEnvGating:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert sanitizer_from_env() is NULL_SANITIZER
        assert not _chip().sanitizer.enabled

    def test_enabled_via_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "1")
        assert sanitizer_from_env().enabled
        assert _chip().sanitizer.enabled

    def test_other_values_do_not_enable(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "0")
        assert sanitizer_from_env() is NULL_SANITIZER

    def test_violation_is_assertion_error(self):
        assert issubclass(PhysicsViolationError, AssertionError)


class TestIsppChecks:
    """The sanitizer flags missed validation, not correct rejections."""

    def test_legal_operations_pass(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "1")
        chip = _chip()
        chip.program_page(0, b"\xf0" * GEO.page_size)
        chip.reprogram_page(0, b"\x70" * GEO.page_size)
        chip.erase_block(0)
        chip.program_page(0, b"\x0f" * GEO.page_size)

    def test_production_rejection_keeps_its_exception(self, monkeypatch):
        # With the sanitizer on, an illegal transition must still raise
        # the production IllegalProgramError, not PhysicsViolationError.
        from repro.flash.errors import IllegalProgramError

        monkeypatch.setenv(ENV_VAR, "1")
        chip = _chip()
        chip.program_page(0, b"\x00" * GEO.page_size)
        with pytest.raises(IllegalProgramError):
            chip.reprogram_page(0, b"\xff" * GEO.page_size)

    def test_flags_missed_validation(self, monkeypatch):
        # An all-zero page cannot legally transition to 0x01 bytes; the
        # pre-computed violation makes check_accepted raise iff the
        # production path were to accept the operation anyway.
        monkeypatch.setenv(ENV_VAR, "1")
        chip = _chip()
        chip.program_page(0, b"\x00" * GEO.page_size)
        page = chip.page_at(0)
        sz = chip.sanitizer
        violation = sz.program_violation(
            page, b"\x01" * GEO.page_size, None, reprogram=True
        )
        assert violation is not None and "ISPP" in violation
        with pytest.raises(PhysicsViolationError):
            sz.check_accepted(violation)
        assert sz.program_violation(
            page, b"\x00" * GEO.page_size, None, reprogram=True
        ) is None

    def test_erased_block_check(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "1")
        chip = _chip()
        chip.program_page(0, b"\x00" * GEO.page_size)
        block = chip.blocks[0]
        with pytest.raises(PhysicsViolationError):
            Sanitizer().check_erased_block(block)
        chip.erase_block(0)
        Sanitizer().check_erased_block(block)


class TestBlockManagerAudit:
    def test_clean_manager_passes(self):
        chip = _chip()
        manager = _manager(chip)
        for lba in range(10):
            manager.write_page(lba, bytes([lba]) * GEO.page_size)
        Sanitizer().check_ftl(manager)

    def test_detects_valid_count_drift(self):
        chip = _chip()
        manager = _manager(chip)
        manager.write_page(0, b"\xaa" * GEO.page_size)
        block = manager.mapping[0] // GEO.pages_per_block
        manager._valid[block] += 1
        with pytest.raises(PhysicsViolationError, match="valid-count drift"):
            Sanitizer().check_ftl(manager)

    def test_detects_broken_bijection(self):
        chip = _chip()
        manager = _manager(chip)
        manager.write_page(0, b"\xaa" * GEO.page_size)
        manager.write_page(1, b"\xbb" * GEO.page_size)
        manager._rmap[manager.mapping[0]] = 1
        with pytest.raises(PhysicsViolationError, match="bijectivity"):
            Sanitizer().check_ftl(manager)

    def test_detects_orphan_appends_done(self):
        chip = _chip()
        manager = _manager(chip)
        manager.write_page(0, b"\xaa" * GEO.page_size)
        manager.appends_done[9999] = 1
        with pytest.raises(PhysicsViolationError, match="appends_done"):
            Sanitizer().check_ftl(manager)

    def test_mapping_pair_check(self):
        chip = _chip()
        manager = _manager(chip)
        manager.write_page(0, b"\xaa" * GEO.page_size)
        ppn = manager.mapping[0]
        Sanitizer().check_mapping_pair(manager, 0, ppn)
        with pytest.raises(PhysicsViolationError):
            Sanitizer().check_mapping_pair(manager, 0, ppn + 1)

    def test_audit_runs_under_gc_and_remount(self, monkeypatch):
        # End to end: overwrite enough to trigger GC with the sanitizer
        # on, then remount; both paths run the full audit.
        monkeypatch.setenv(ENV_VAR, "1")
        chip = _chip()
        manager = _manager(chip)
        assert manager.sanitizer.enabled
        for round_number in range(8):
            for lba in range(manager.logical_pages // 2):
                manager.write_page(lba, bytes([round_number]) * GEO.page_size)
        assert chip.stats.block_erases > 0
        manager.rebuild_from_media()
        Sanitizer().check_ftl(manager)
