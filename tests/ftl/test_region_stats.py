"""Per-region statistics and the device-level aggregate."""

from repro.core.config import SCHEME_2X4
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.ftl.noftl import NoFtlDevice

GEO = FlashGeometry(page_size=256, oob_size=64, pages_per_block=8, blocks=32)


def make_device():
    device = NoFtlDevice(FlashChip(GEO), over_provisioning=0.25)
    hot = device.create_region("hot", blocks=16, ipa=SCHEME_2X4)
    cold = device.create_region("cold", blocks=16)
    return device, hot, cold


def image(tag: bytes) -> bytes:
    return tag + b"\xff" * (256 - len(tag))


class TestRegionStats:
    def test_counters_attributed_to_owning_region(self):
        device, hot, cold = make_device()
        cold_lba = hot.logical_pages
        device.write_page(0, image(b"hot"))
        device.write_delta(0, 64, b"d")
        device.write_page(cold_lba, image(b"cold"))
        device.read_page(cold_lba)
        assert hot.stats.host_writes == 1
        assert hot.stats.host_delta_writes == 1
        assert hot.stats.host_reads == 0
        assert cold.stats.host_writes == 1
        assert cold.stats.host_reads == 1
        assert cold.stats.host_delta_writes == 0

    def test_device_aggregate_sums_regions(self):
        device, hot, cold = make_device()
        cold_lba = hot.logical_pages
        device.write_page(0, image(b"h"))
        device.write_page(cold_lba, image(b"c"))
        device.write_delta(0, 64, b"d")
        stats = device.stats
        assert stats.host_writes == 2
        assert stats.host_delta_writes == 1
        assert stats.in_place_appends == 1

    def test_snapshot_diff_still_works(self):
        device, hot, _cold = make_device()
        device.write_page(0, image(b"x"))
        before = device.stats.snapshot()
        device.write_page(1, image(b"y"))
        device.write_page(0, image(b"x"))  # overwrite: invalidation
        diff = device.stats.diff(before)
        assert diff.host_writes == 2
        assert diff.page_invalidations == 1

    def test_region_report_renders(self):
        device, hot, _cold = make_device()
        device.write_page(0, image(b"x"))
        device.write_delta(0, 64, b"d")
        report = device.region_report()
        assert "hot" in report
        assert "cold" in report
        assert "[2x4]" in report
        assert "off" in report

    def test_gc_work_attributed_per_region(self):
        device, hot, cold = make_device()
        # Hammer ONLY the hot region until its GC fires.
        for round_ in range(8):
            for lba in range(hot.logical_pages):
                device.write_page(lba, image(bytes([round_])))
        assert hot.stats.gc_erases > 0
        assert cold.stats.gc_erases == 0
