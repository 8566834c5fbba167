"""Memory contract of the simulated media: a page costs what it holds.

An erased page references the shared erased images and the shared
read-only all-zero disturb counts.  Only the erased -> programmed edge
gives a page cells of its own (and its first disturb a counts array of
its own); an erase, or the restore of an erased pre-image, goes back to
the shared objects.  Nothing may ever write into a shared object.
"""

import tracemalloc

import numpy as np
import pytest

from repro.flash.chip import FlashChip
from repro.flash.ecc import DEFAULT_ECC
from repro.flash.geometry import FlashGeometry
from repro.flash.modes import FlashMode
from repro.flash.page import PageState, erased_image, undisturbed

GEO = FlashGeometry(page_size=512, oob_size=64, pages_per_block=8, blocks=4)
ERASED_DATA = erased_image(GEO.page_size)
ERASED_OOB = erased_image(GEO.oob_size)
UNDISTURBED = undisturbed(DEFAULT_ECC.codewords_for(GEO.page_size))


def make_chip() -> FlashChip:
    return FlashChip(GEO)


def assert_shared_images_erased() -> None:
    assert ERASED_DATA == b"\xff" * GEO.page_size
    assert ERASED_OOB == b"\xff" * GEO.oob_size
    assert not UNDISTURBED.any()


def assert_on_shared_image(page) -> None:
    assert page.state is PageState.ERASED
    assert page._data is ERASED_DATA
    assert page._oob is ERASED_OOB


def test_board_sixteenth_builds_in_under_16_mib():
    # 256 blocks x 128 pages x 16 KB: 1/16 of the OpenSSD Jasmine board,
    # over 500 MiB of cells if every page owned its buffers.
    tracemalloc.start()
    try:
        chip = FlashChip(FlashGeometry(16384, 128, 128, 256), mode=FlashMode.MLC)
        current, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert chip.geometry.total_pages == 32768
    assert current < 16 * 2**20


class TestErasedPagesShare:
    def test_erased_pages_share_one_data_and_one_oob_object(self):
        chip = make_chip()
        first, other = chip.page_at(0), chip.page_at(GEO.total_pages - 1)
        assert first._data is other._data is ERASED_DATA
        assert first._oob is other._oob is ERASED_OOB
        assert first._disturb is other._disturb
        assert not first._disturb.flags.writeable

    def test_shared_image_reads_as_erased(self):
        chip = make_chip()
        assert chip.read_page_with_oob(3) == (ERASED_DATA, ERASED_OOB)


class TestProgramAllocates:
    def test_program_gives_private_buffers(self):
        chip = make_chip()
        chip.program_page(0, b"\x00" * 16)
        page = chip.page_at(0)
        assert isinstance(page._data, bytearray)
        assert isinstance(page._oob, bytearray)
        page._data[100] = 0x00
        page._oob[3] = 0x00
        assert_on_shared_image(chip.page_at(1))
        assert chip.read_page_with_oob(1) == (ERASED_DATA, ERASED_OOB)
        assert_shared_images_erased()

    @pytest.mark.parametrize("kind", ["reprogram", "partial"])
    def test_first_pulse_on_an_erased_page_gives_private_buffers(self, kind):
        chip = make_chip()
        if kind == "reprogram":
            chip.reprogram_page(2, b"\x0f" * 8)
        else:
            chip.partial_program(2, 8, b"\x0f" * 8, 0, b"\x00" * 8)
        page = chip.page_at(2)
        assert page.state is PageState.PROGRAMMED
        assert isinstance(page._data, bytearray)
        assert isinstance(page._oob, bytearray)
        assert_shared_images_erased()
        assert_on_shared_image(chip.page_at(3))

    def test_in_place_appends_keep_the_page_buffers(self):
        chip = make_chip()
        chip.program_page(0, b"\x00" * 16)
        page = chip.page_at(0)
        data, oob = page._data, page._oob
        chip.partial_program(0, 16, b"\x01" * 8, 0, b"\x00" * 8)
        image = bytes(page._data[:24]) + b"\x00" * 8
        chip.reprogram_page(0, image)
        assert page._data is data
        assert page._oob is oob
        assert page.raw_data()[:32] == image

    def test_erase_returns_to_the_shared_image(self):
        chip = make_chip()
        for ppn in range(GEO.pages_per_block):
            chip.program_page(ppn, bytes([ppn]) * 8, b"\x00" * GEO.oob_size)
        chip.erase_block(0)
        for ppn in range(GEO.pages_per_block):
            page = chip.page_at(ppn)
            assert_on_shared_image(page)
            assert page.program_passes == 0
        assert_shared_images_erased()


class TestDisturb:
    def test_first_disturb_gives_a_private_counts_array(self):
        chip = make_chip()
        chip.program_page(0, b"\x00")
        chip.program_page(1, b"\x00")
        page, neighbour = chip.page_at(0), chip.page_at(1)
        shared = neighbour._disturb
        assert shared is UNDISTURBED
        counts = np.zeros(len(shared), dtype=np.int64)
        counts[0] = 3
        page.add_disturb(counts)
        page.add_disturb(counts)
        assert page._disturb is not shared
        assert page._disturb[0] == 6 and page.disturb_bits == 6
        assert not shared.any()
        assert neighbour._disturb is shared
        chip.erase_block(0)
        assert page._disturb is shared
        assert page.disturb_bits == 0


class TestRestoreAndTear:
    """Fault injection's undo images and torn pulses on erased pages."""

    def test_restore_of_an_erased_snapshot_then_a_tear(self):
        chip = make_chip()
        page = chip.page_at(0)
        snap = page.snapshot_image()
        chip.program_page(0, b"\x00" * GEO.page_size, b"\x00" * GEO.oob_size)
        page.restore_image(snap)
        assert_on_shared_image(page)
        assert page.program_passes == 0
        page.apply_torn_range(4, b"\x00" * 8, 0, b"\x00" * 8, 10)
        assert page.state is PageState.PROGRAMMED
        assert page.raw_data()[:14] == b"\xff" * 4 + b"\x00" * 8 + b"\xff" * 2
        assert page.raw_oob()[:2] == b"\x00\x00"
        assert_shared_images_erased()
        assert_on_shared_image(chip.page_at(1))

    def test_tear_on_an_erased_page_then_restore(self):
        chip = make_chip()
        page = chip.page_at(0)
        snap = page.snapshot_image()
        page.apply_torn_program(b"\x00" * GEO.page_size, b"\x00" * 8, 5)
        assert page.state is PageState.PROGRAMMED
        assert page.raw_data()[:6] == b"\x00" * 5 + b"\xff"
        assert_shared_images_erased()
        page.restore_image(snap)
        assert_on_shared_image(page)
        assert_shared_images_erased()

    def test_restore_of_a_programmed_snapshot_owns_its_buffers(self):
        chip = make_chip()
        chip.program_page(0, b"\x00" * 8)
        page = chip.page_at(0)
        snap = page.snapshot_image()
        chip.erase_block(0)
        page.restore_image(snap)
        assert page.state is PageState.PROGRAMMED
        assert isinstance(page._data, bytearray)
        chip.partial_program(0, 8, b"\x01")
        assert page.raw_data()[:9] == b"\x00" * 8 + b"\x01"
        assert_shared_images_erased()

    def test_torn_partial_program_marks_the_page_programmed(self):
        chip = make_chip()
        page = chip.page_at(0)
        page.apply_torn_range(0, b"\x00" * 8, None, None, 3)
        assert page.state is PageState.PROGRAMMED
        assert page.program_passes == 1
        assert page.raw_data()[:4] == b"\x00" * 3 + b"\xff"
