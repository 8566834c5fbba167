"""Static wear leveling: hot/cold imbalance under skewed overwrites."""

import numpy as np

from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.ftl.page_mapping import PageMappingFtl

GEO = FlashGeometry(page_size=256, oob_size=64, pages_per_block=8, blocks=24)


def run_skewed(wear_leveling_gap):
    """Cold data + a tiny hot set hammered hard; returns erase counts."""
    chip = FlashChip(GEO)
    ftl = PageMappingFtl(chip, over_provisioning=0.25)
    ftl.wear_leveling_gap = wear_leveling_gap
    rng = np.random.default_rng(11)
    for lba in range(ftl.logical_pages):
        ftl.write_page(lba, b"cold")
    hot = list(range(6))
    for i in range(4000):
        ftl.write_page(hot[int(rng.integers(0, len(hot)))], bytes([i % 256]))
    return ftl, [block.erase_count for block in chip.blocks]


class TestWearLeveling:
    def test_skew_without_wl_is_unbalanced(self):
        _ftl, counts = run_skewed(wear_leveling_gap=None)
        assert max(counts) - min(counts) > 10

    def test_wl_narrows_the_gap(self):
        _ftl_none, counts_none = run_skewed(wear_leveling_gap=None)
        ftl_wl, counts_wl = run_skewed(wear_leveling_gap=8)
        gap_none = max(counts_none) - min(counts_none)
        gap_wl = max(counts_wl) - min(counts_wl)
        assert gap_wl < gap_none
        assert ftl_wl.stats.wear_leveling_moves > 0

    def test_wl_preserves_data(self):
        ftl, _counts = run_skewed(wear_leveling_gap=8)
        for lba in range(6, ftl.logical_pages):
            assert ftl.read_page(lba)[:4] == b"cold"
