"""NoFTL edge cases: OOB limits, per-region overrides, logical caps."""

import pytest

from repro.core.config import SCHEME_2X4, IpaScheme
from repro.flash.chip import FlashChip
from repro.flash.errors import OobOverflowError
from repro.flash.geometry import FlashGeometry
from repro.ftl.noftl import NoFtlDevice

GEO = FlashGeometry(page_size=256, oob_size=64, pages_per_block=8, blocks=32)


def make_device():
    return NoFtlDevice(FlashChip(GEO), over_provisioning=0.25)


class TestRegionLimits:
    def test_oob_cannot_hold_oversized_n(self):
        # 64 B OOB minus the 17 B mapping record at its tail leaves room
        # for 1 + 4 ECC slots of 8 B: N = 5 overflows.
        device = make_device()
        remaining = device.blocks_remaining
        with pytest.raises(OobOverflowError):
            device.create_region("big", blocks=16, ipa=IpaScheme(5, 4))
        with pytest.raises(ValueError, match="need more than 3 blocks"):
            device.create_region("tiny", blocks=3)
        # A refused region claims no blocks: a full-size one still fits.
        assert device.blocks_remaining == remaining
        device.create_region("all", blocks=remaining, ipa=IpaScheme(4, 4))
        assert device.blocks_remaining == 0

    def test_n_within_oob_ok(self):
        device = make_device()
        device.create_region("ok", blocks=16, ipa=IpaScheme(4, 4))

    def test_logical_cap_respected(self):
        device = make_device()
        region = device.create_region(
            "capped", blocks=16, ipa=SCHEME_2X4, logical_pages=10
        )
        assert region.logical_pages == 10
        device.write_page(9, b"\xff" * 256)
        with pytest.raises(KeyError):
            device.write_page(10, b"\xff" * 256)

    def test_cap_above_physical_is_clamped(self):
        device = make_device()
        region = device.create_region(
            "huge-cap", blocks=16, logical_pages=10**9
        )
        assert region.logical_pages < 16 * 8

    def test_per_region_over_provisioning(self):
        device = make_device()
        tight = device.create_region("tight", blocks=16, over_provisioning=0.05)
        roomy = device.create_region("roomy", blocks=16, over_provisioning=0.50)
        assert tight.logical_pages > roomy.logical_pages

    def test_trim_routed_to_region(self):
        device = make_device()
        region = device.create_region("r", blocks=32)
        device.write_page(0, b"x" * 256)
        device.trim(0)
        assert region.stats.trims == 1
        with pytest.raises(KeyError):
            device.read_page(0)
