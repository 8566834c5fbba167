"""FlashChip behaviour: programming rules, modes, latencies, wear, ECC."""

import pytest

from repro.flash.chip import FlashChip
from repro.flash.errors import (
    BadBlockError,
    EccUncorrectableError,
    IllegalProgramError,
    ModeViolationError,
    WriteToProgrammedPageError,
)
from repro.flash.geometry import FlashGeometry
from repro.flash.latency import SimClock
from repro.flash.modes import FlashMode

GEO = FlashGeometry(page_size=512, oob_size=64, pages_per_block=8, blocks=8)


def make_chip(mode=FlashMode.SLC, **kwargs):
    return FlashChip(GEO, mode=mode, **kwargs)


class TestBasicOps:
    def test_program_then_read_round_trip(self):
        chip = make_chip()
        payload = bytes(range(256)) * 2
        chip.program_page(3, payload)
        assert chip.read_page(3) == payload

    def test_short_program_padded_with_erased_bytes(self):
        chip = make_chip()
        chip.program_page(0, b"abc")
        data = chip.read_page(0)
        assert data[:3] == b"abc"
        assert all(b == 0xFF for b in data[3:])

    def test_oversized_program_rejected(self):
        chip = make_chip()
        with pytest.raises(ValueError):
            chip.program_page(0, b"x" * 513)

    def test_double_program_rejected(self):
        chip = make_chip()
        chip.program_page(0, b"abc")
        with pytest.raises(WriteToProgrammedPageError):
            chip.program_page(0, b"abc")

    def test_erase_enables_reprogramming(self):
        chip = make_chip()
        chip.program_page(0, b"abc")
        chip.erase_block(0)
        chip.program_page(0, b"xyz")
        assert chip.read_page(0)[:3] == b"xyz"

    def test_oob_round_trip(self):
        chip = make_chip()
        oob = bytes(range(64))
        chip.program_page(0, b"abc", oob=oob)
        _, got_oob = chip.read_page_with_oob(0)
        assert got_oob == oob


class TestReprogram:
    def test_append_only_reprogram_succeeds(self):
        chip = make_chip()
        old = b"\x11\x22" + b"\xff" * 510
        chip.program_page(0, old)
        new = b"\x11\x22\x33\x44" + b"\xff" * 508
        chip.reprogram_page(0, new)
        assert chip.read_page(0)[:4] == b"\x11\x22\x33\x44"
        assert chip.stats.page_reprograms == 1

    def test_bit_setting_reprogram_fails(self):
        chip = make_chip()
        chip.program_page(0, b"\x00" * 512)
        with pytest.raises(IllegalProgramError):
            chip.reprogram_page(0, b"\x01" + b"\x00" * 511)

    def test_failed_reprogram_leaves_page_intact(self):
        chip = make_chip()
        chip.program_page(0, b"\x00" * 512)
        with pytest.raises(IllegalProgramError):
            chip.reprogram_page(0, b"\xff" * 512)
        assert chip.read_page(0) == b"\x00" * 512


class TestPartialProgram:
    def test_appends_payload_at_offset(self):
        chip = make_chip()
        chip.program_page(0, b"head")
        chip.partial_program(0, 100, b"DELTA")
        data = chip.read_page(0)
        assert data[:4] == b"head"
        assert data[100:105] == b"DELTA"

    def test_transfers_only_payload_bytes(self):
        chip = make_chip()
        chip.program_page(0, b"head")
        before = chip.stats.bytes_programmed
        chip.partial_program(0, 100, b"DELTA")
        assert chip.stats.bytes_programmed - before == 5

    def test_rejects_overwrite_of_programmed_range(self):
        chip = make_chip()
        chip.program_page(0, b"head")
        with pytest.raises(IllegalProgramError):
            chip.partial_program(0, 0, b"HEAD")

    def test_rejects_out_of_bounds(self):
        chip = make_chip()
        chip.program_page(0, b"head")
        with pytest.raises(ValueError):
            chip.partial_program(0, 510, b"long")

    def test_oob_append(self):
        chip = make_chip()
        chip.program_page(0, b"head", oob=b"\xff" * 64)
        chip.partial_program(0, 100, b"D", oob_offset=8, oob_payload=b"\x01\x02")
        _, oob = chip.read_page_with_oob(0)
        assert oob[8:10] == b"\x01\x02"

    def test_sequential_appends_accumulate(self):
        chip = make_chip()
        chip.program_page(0, b"base")
        chip.partial_program(0, 10, b"one")
        chip.partial_program(0, 20, b"two")
        chip.partial_program(0, 30, b"three")
        data = chip.read_page(0)
        assert data[10:13] == b"one"
        assert data[20:23] == b"two"
        assert data[30:35] == b"three"
        assert chip.stats.page_reprograms == 3

    def test_empty_payload_charges_pulse_but_moves_no_bytes(self):
        chip = make_chip()
        chip.program_page(0, b"head")
        bytes_before = chip.stats.bytes_programmed
        clock_before = chip.clock.now_us
        chip.partial_program(0, 100, b"")
        assert chip.stats.bytes_programmed == bytes_before
        assert chip.stats.page_reprograms == 1
        assert chip.clock.now_us == clock_before + chip.latency.reprogram_us
        assert chip.read_page(0)[:4] == b"head"

    def test_oob_only_append(self):
        chip = make_chip()
        chip.program_page(0, b"head", oob=b"\xff" * 64)
        chip.partial_program(0, 0, b"", oob_offset=16, oob_payload=b"\x0a\x0b")
        data, oob = chip.read_page_with_oob(0)
        assert data[:4] == b"head"
        assert oob[16:18] == b"\x0a\x0b"
        assert chip.stats.page_reprograms == 1

    def test_append_flush_against_page_boundary(self):
        chip = make_chip()
        chip.program_page(0, b"head")
        chip.partial_program(0, GEO.page_size - 5, b"DELTA")
        assert chip.read_page(0)[-5:] == b"DELTA"

    def test_append_one_past_page_boundary_rejected(self):
        chip = make_chip()
        chip.program_page(0, b"head")
        with pytest.raises(ValueError):
            chip.partial_program(0, GEO.page_size - 4, b"DELTA")

    def test_reappend_over_programmed_bytes_rejected_and_page_intact(self):
        chip = make_chip()
        chip.program_page(0, b"base")
        chip.partial_program(0, 10, b"one")
        with pytest.raises(IllegalProgramError):
            chip.partial_program(0, 12, b"XY")  # overlaps the 'e' of "one"
        data = chip.read_page(0)
        assert data[10:13] == b"one"
        assert data[13] == 0xFF

    def test_oob_payload_requires_oob_offset(self):
        chip = make_chip()
        chip.program_page(0, b"head")
        with pytest.raises(ValueError):
            chip.partial_program(0, 100, b"D", oob_payload=b"\x01")

    def test_oob_range_out_of_bounds_rejected(self):
        chip = make_chip()
        chip.program_page(0, b"head", oob=b"\xff" * 64)
        with pytest.raises(ValueError):
            chip.partial_program(0, 100, b"D", oob_offset=63, oob_payload=b"\x01\x02")

    def test_oob_append_setting_cleared_bit_rejected(self):
        chip = make_chip()
        chip.program_page(0, b"head", oob=b"\x00" * 64)
        with pytest.raises(IllegalProgramError):
            chip.partial_program(0, 100, b"D", oob_offset=0, oob_payload=b"\x01")


class TestModes:
    def test_pslc_msb_pages_unusable(self):
        chip = make_chip(mode=FlashMode.PSLC)
        chip.program_page(0, b"lsb ok")  # page 0 = LSB
        with pytest.raises(ModeViolationError):
            chip.program_page(1, b"msb not usable")

    def test_pslc_halves_capacity(self):
        chip = make_chip(mode=FlashMode.PSLC)
        assert chip.usable_capacity_pages == GEO.total_pages // 2

    def test_odd_mlc_full_capacity(self):
        chip = make_chip(mode=FlashMode.ODD_MLC)
        assert chip.usable_capacity_pages == GEO.total_pages

    def test_odd_mlc_msb_page_not_appendable(self):
        chip = make_chip(mode=FlashMode.ODD_MLC)
        chip.program_page(1, b"msb data")
        with pytest.raises(ModeViolationError):
            chip.reprogram_page(1, b"msb data" + b"\x00")

    def test_odd_mlc_lsb_page_appendable(self):
        chip = make_chip(mode=FlashMode.ODD_MLC)
        chip.program_page(0, b"lsb")
        chip.partial_program(0, 64, b"append")
        assert chip.read_page(0)[64:70] == b"append"

    def test_slc_every_page_appendable(self):
        chip = make_chip(mode=FlashMode.SLC)
        for p in range(4):
            chip.program_page(p, b"x")
            chip.partial_program(p, 64, b"a")


class TestLatencyAccounting:
    def test_operations_advance_clock(self):
        clock = SimClock()
        chip = make_chip(clock=clock)
        assert clock.now_us == 0
        chip.program_page(0, b"x")
        t_prog = clock.now_us
        assert t_prog > 0
        chip.read_page(0)
        assert clock.now_us > t_prog

    def test_erase_slowest_single_op(self):
        clock = SimClock()
        chip = make_chip(clock=clock)
        chip.program_page(0, b"x")
        t0 = clock.now_us
        chip.read_page(0)
        read_cost = clock.now_us - t0
        t1 = clock.now_us
        chip.erase_block(1)
        erase_cost = clock.now_us - t1
        assert erase_cost > read_cost

    def test_msb_program_slower_than_lsb(self):
        clock = SimClock()
        chip = make_chip(mode=FlashMode.MLC, clock=clock)
        t0 = clock.now_us
        chip.program_page(0, b"x")  # LSB
        lsb_cost = clock.now_us - t0
        t1 = clock.now_us
        chip.program_page(1, b"x")  # MSB
        msb_cost = clock.now_us - t1
        assert msb_cost > lsb_cost


class TestWear:
    def test_erase_counts_accumulate(self):
        chip = make_chip()
        for _ in range(5):
            chip.erase_block(2)
        assert chip.blocks[2].erase_count == 5

    def test_endurance_limit_retires_block(self):
        chip = make_chip(endurance_limit=3)
        for _ in range(3):
            chip.erase_block(0)
        with pytest.raises(BadBlockError):
            chip.erase_block(0)
        assert chip.blocks[0].is_bad
        with pytest.raises(BadBlockError):
            chip.program_page(0, b"x")


class TestInterferenceAndEcc:
    def test_slc_appends_do_not_break_neighbours(self):
        chip = make_chip(mode=FlashMode.SLC, seed=7)
        chip.program_page(0, b"n0")
        chip.program_page(1, b"victim")
        chip.program_page(2, b"n2")
        for i in range(200):
            chip.partial_program(0, 16 + i, b"\x00")
        # Neighbour still readable: SLC disturb rate is negligible.
        assert chip.read_page(1)[:6] == b"victim"

    def test_full_mlc_append_storm_eventually_uncorrectable(self):
        # Experiment E8's mechanism: full-MLC reprograms disturb paired and
        # adjacent pages beyond ECC capability (paper Section 3).
        chip = make_chip(mode=FlashMode.MLC, seed=7)
        chip.program_page(0, b"victim-lsb")
        chip.program_page(1, b"victim-msb")
        chip.program_page(2, b"appender")
        with pytest.raises(EccUncorrectableError):
            for i in range(20_000):
                chip.partial_program(2, 16 + (i % 400), b"\x00")
                if i % 50 == 0:
                    chip.read_page(1)
            pytest.fail("full-MLC append storm should have broken ECC")
        assert chip.stats.ecc_uncorrectable_events >= 1

    def test_ecc_corrected_bits_counted(self):
        chip = make_chip(mode=FlashMode.MLC, seed=11)
        chip.program_page(0, b"victim")
        chip.program_page(2, b"appender")
        for i in range(60):
            chip.partial_program(2, 16 + i, b"\x00")
        chip.read_page(0)
        assert chip.stats.ecc_corrected_bits > 0
