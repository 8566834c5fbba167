"""GC under wear: bad-block retirement and endurance exhaustion."""

import pytest

from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.ftl.interface import DeviceFullError
from repro.ftl.page_mapping import PageMappingFtl

GEO = FlashGeometry(page_size=256, oob_size=64, pages_per_block=8, blocks=32)


def hammer(ftl, rounds):
    for round_ in range(rounds):
        for lba in range(ftl.logical_pages):
            ftl.write_page(lba, bytes([round_ % 256]))


class TestBadBlockRetirement:
    def test_preworn_blocks_retired_data_survives(self):
        # Factory-uneven wear: a few blocks arrive near end-of-life, as on
        # real parts.  They must retire gracefully mid-run.
        chip = FlashChip(GEO, endurance_limit=10)
        for block_id in range(4):
            for _ in range(8):
                chip.erase_block(block_id)
        ftl = PageMappingFtl(chip, over_provisioning=0.25)
        hammer(ftl, 8)
        retired = ftl.stats.retired_blocks
        assert retired >= 1
        # Data still intact despite retirements.
        for lba in range(ftl.logical_pages):
            assert ftl.read_page(lba)[:1] == bytes([7])

    def test_total_wearout_surfaces_as_device_full(self):
        chip = FlashChip(GEO, endurance_limit=2)
        ftl = PageMappingFtl(chip, over_provisioning=0.25)
        with pytest.raises(DeviceFullError):
            hammer(ftl, 60)

    def test_no_retirement_without_endurance_limit(self):
        ftl = PageMappingFtl(FlashChip(GEO), over_provisioning=0.25)
        hammer(ftl, 12)
        assert ftl.stats.retired_blocks == 0
