"""Write-policy edge cases: fallbacks, meta-only flushes, compose images."""

import pytest

from repro.core.config import IPA_DISABLED, SCHEME_2X4
from repro.core.delta import DeltaRecord
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.ftl.noftl import NoFtlDevice
from repro.storage.manager import (
    IpaNativePolicy,
    StorageManager,
    compose_append_image,
)

GEO = FlashGeometry(page_size=1024, oob_size=128, pages_per_block=8, blocks=32)


def native_manager(ipa=True, buffer_capacity=4):
    device = NoFtlDevice(FlashChip(GEO), over_provisioning=0.2)
    device.create_region(
        "data", blocks=32, ipa=SCHEME_2X4 if ipa else IPA_DISABLED
    )
    return StorageManager(
        device, SCHEME_2X4, IpaNativePolicy(), buffer_capacity=buffer_capacity
    )


def seed(mgr, lba=0):
    frame = mgr.format_page(lba)
    with mgr.update(lba) as page:
        slot = page.insert(b"record-000000000")
    mgr.unpin(frame)
    mgr.flush_all()
    return slot


class TestComposeAppendImage:
    def test_places_records_in_slots(self):
        base = bytearray(b"\x00" * 1024)
        footer_start = 1024 - 8
        delta_start = footer_start - SCHEME_2X4.delta_area_size
        for i in range(delta_start, footer_start):
            base[i] = 0xFF
        record = DeltaRecord(
            pairs=[(100, 7)], meta_header=b"h" * 24, meta_footer=b"f" * 8
        )
        offset, image = compose_append_image(
            bytes(base), [record.encode(SCHEME_2X4)], SCHEME_2X4, 0
        )
        assert offset == delta_start
        slot0 = image[delta_start : delta_start + SCHEME_2X4.record_size]
        assert DeltaRecord.decode(slot0, SCHEME_2X4).pairs == [(100, 7)]
        # Second slot still erased.
        slot1 = image[
            delta_start + SCHEME_2X4.record_size : delta_start
            + 2 * SCHEME_2X4.record_size
        ]
        assert DeltaRecord.decode(slot1, SCHEME_2X4) is None

    def test_slot_overflow_rejected(self):
        base = b"\xff" * 1024
        record = DeltaRecord(meta_header=b"h" * 24, meta_footer=b"f" * 8)
        with pytest.raises(ValueError):
            compose_append_image(
                base, [record.encode(SCHEME_2X4)], SCHEME_2X4, start_slot=2
            )


class TestFallbacks:
    def test_device_refusal_falls_back_to_page_write(self):
        """Region without IPA refuses write_delta; the policy must land
        the data via a full page write and count the fallback."""
        mgr = native_manager(ipa=False)
        slot = seed(mgr)
        with mgr.update(0) as page:
            page.update(slot, 0, b"XY")
        mgr.flush_all()
        assert mgr.stats.ipa_fallbacks == 1
        assert mgr.stats.ipa_flushes == 0
        mgr.pool.drop_all()
        with mgr.page(0) as page:
            assert page.read(slot)[:2] == b"XY"

    def test_meta_only_dirty_flush_ships_empty_record(self):
        mgr = native_manager()
        seed(mgr)
        with mgr.update(0) as page:
            pass  # LSN bump only
        mgr.flush_all()
        assert mgr.device.stats.host_delta_writes == 1
        assert mgr.stats.ipa_flushes == 1

    def test_dirty_without_changes_writes_full_page(self):
        mgr = native_manager()
        seed(mgr)
        frame = mgr.fetch(0)
        frame.mark_dirty()  # dirty flag without any tracked change
        mgr.unpin(frame)
        writes_before = mgr.device.stats.host_writes
        mgr.flush_all()
        assert mgr.device.stats.host_writes == writes_before + 1

    def test_clean_frame_never_flushed(self):
        mgr = native_manager()
        seed(mgr)
        with mgr.page(0):
            pass
        writes = mgr.device.stats.host_writes
        deltas = mgr.device.stats.host_delta_writes
        mgr.flush_all()
        assert mgr.device.stats.host_writes == writes
        assert mgr.device.stats.host_delta_writes == deltas


class TestLatencyBreakdownIntegration:
    def test_delta_flush_is_bus_cheap(self):
        """write_delta moves ~45 B over the bus; a page write moves 1 KB+."""
        mgr = native_manager()
        slot = seed(mgr)
        mgr.clock.reset()
        with mgr.update(0) as page:
            page.update(slot, 0, b"Z")
        mgr.flush_all()
        bus_delta = mgr.clock.breakdown_us.get("bus", 0.0)

        mgr2 = native_manager(ipa=False)
        slot2 = seed(mgr2)
        mgr2.clock.reset()
        with mgr2.update(0) as page:
            page.update(slot2, 0, b"Z")
        mgr2.flush_all()
        bus_full = mgr2.clock.breakdown_us.get("bus", 0.0)
        assert bus_delta < bus_full
