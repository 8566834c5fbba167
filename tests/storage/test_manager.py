"""Storage manager + write policies against real simulated devices.

These are the integration tests of the paper's three write strategies:
fetch applies delta-records, eviction ships deltas (native), composed
pages (block-device IPA) or whole pages (traditional).
"""

import pytest

from repro.core.config import IPA_DISABLED, SCHEME_2X4
from repro.core.tracker import ChangeTracker
from repro.fault.injector import FaultInjector, PowerLossError
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.ftl.ipa_ftl import IpaFtl
from repro.ftl.noftl import NoFtlDevice
from repro.ftl.page_mapping import PageMappingFtl
from repro.storage.layout import PageCorruptError, PageFullError
from repro.storage.manager import (
    IpaBlockDevicePolicy,
    IpaNativePolicy,
    StorageManager,
    TraditionalPolicy,
)

GEO = FlashGeometry(page_size=1024, oob_size=128, pages_per_block=8, blocks=32)


def native_manager(buffer_capacity=4, scheme=SCHEME_2X4):
    device = NoFtlDevice(FlashChip(GEO), over_provisioning=0.2)
    device.create_region("data", blocks=32, ipa=scheme)
    return StorageManager(
        device, scheme, IpaNativePolicy(), buffer_capacity=buffer_capacity
    )


def blockdev_manager(buffer_capacity=4):
    device = IpaFtl(FlashChip(GEO), over_provisioning=0.2)
    return StorageManager(
        device, SCHEME_2X4, IpaBlockDevicePolicy(), buffer_capacity=buffer_capacity
    )


def traditional_manager(buffer_capacity=4):
    device = PageMappingFtl(FlashChip(GEO), over_provisioning=0.2)
    return StorageManager(
        device, IPA_DISABLED, TraditionalPolicy(), buffer_capacity=buffer_capacity
    )


def seed_page(mgr, lba=0, record=b"record-zero-000000"):
    frame = mgr.format_page(lba)
    with mgr.update(lba) as page:
        slot = page.insert(record)
    mgr.unpin(frame)
    mgr.flush_all()
    return slot


def evict_everything(mgr):
    mgr.flush_all()
    mgr.pool.drop_all()


class TestFetchAndFormat:
    def test_format_then_fetch_round_trip(self):
        mgr = native_manager()
        slot = seed_page(mgr)
        evict_everything(mgr)
        with mgr.page(0) as page:
            assert page.read(slot) == b"record-zero-000000"

    def test_fetch_unknown_lba_raises(self):
        mgr = native_manager()
        with pytest.raises(KeyError):
            mgr.fetch(999)

    def test_double_format_rejected(self):
        mgr = native_manager()
        frame = mgr.format_page(0)
        with pytest.raises(ValueError):
            mgr.format_page(0)
        mgr.unpin(frame)

    def test_buffer_hit_counts(self):
        mgr = native_manager()
        seed_page(mgr)
        with mgr.page(0):
            pass
        with mgr.page(0):
            pass
        assert mgr.pool.stats.hits >= 1


class TestNativeIpaFlow:
    def test_small_update_ships_delta_only(self):
        mgr = native_manager()
        slot = seed_page(mgr)
        writes_before = mgr.device.stats.host_writes
        with mgr.update(0) as page:
            page.update(slot, 0, b"RE")
        mgr.flush_all()
        assert mgr.device.stats.host_writes == writes_before  # no page write
        assert mgr.device.stats.host_delta_writes == 1
        assert mgr.stats.ipa_flushes == 1

    def test_delta_survives_eviction_and_refetch(self):
        mgr = native_manager()
        slot = seed_page(mgr)
        with mgr.update(0) as page:
            page.update(slot, 7, b"XY")
        evict_everything(mgr)
        with mgr.page(0) as page:
            assert page.read(slot) == b"record-XYro-000000"

    def test_two_residencies_two_deltas_then_oop(self):
        # N=2: two IPA evictions fit, the third falls back out-of-place.
        mgr = native_manager()
        slot = seed_page(mgr)
        for i in range(3):
            with mgr.update(0) as page:
                page.update(slot, i, bytes([0x41 + i]))
            evict_everything(mgr)
        assert mgr.stats.ipa_flushes == 2
        assert mgr.device.stats.host_delta_writes == 2
        # Final content correct regardless of path.
        with mgr.page(0) as page:
            assert page.read(slot)[:3] == b"ABC"

    def test_big_update_goes_out_of_place(self):
        mgr = native_manager()
        slot = seed_page(mgr)
        oop_before = mgr.stats.oop_flushes
        with mgr.update(0) as page:
            page.update(slot, 0, b"0123456789")  # 10 B > M=4
        mgr.flush_all()
        assert mgr.stats.ipa_flushes == 0
        assert mgr.stats.oop_flushes == oop_before + 1
        evict_everything(mgr)
        with mgr.page(0) as page:
            assert page.read(slot) == b"0123456789-000000"[:18] or page.read(slot)[:10] == b"0123456789"

    def test_insert_goes_out_of_place(self):
        mgr = native_manager()
        seed_page(mgr)
        oop_before = mgr.stats.oop_flushes
        with mgr.update(0) as page:
            page.insert(b"another record")
        mgr.flush_all()
        assert mgr.stats.oop_flushes == oop_before + 1

    def test_after_oop_budget_resets(self):
        mgr = native_manager()
        slot = seed_page(mgr)
        # Exhaust N with two delta evictions.
        for i in range(2):
            with mgr.update(0) as page:
                page.update(slot, i, b"Z")
            evict_everything(mgr)
        # Out-of-place rewrite clears the flash delta count...
        with mgr.update(0) as page:
            page.update(slot, 0, b"0123456789")
        evict_everything(mgr)
        # ...so IPA works again.
        with mgr.update(0) as page:
            page.update(slot, 12, b"Q")
        mgr.flush_all()
        assert mgr.stats.ipa_flushes == 3

    def test_clean_eviction_writes_nothing(self):
        mgr = native_manager(buffer_capacity=2)
        seed_page(mgr, lba=0)
        seed_page(mgr, lba=1)
        writes = mgr.device.stats.host_writes
        deltas = mgr.device.stats.host_delta_writes
        # Read-only traffic evicting pages 0/1 repeatedly.
        seed_page(mgr, lba=2)
        with mgr.page(0):
            pass
        with mgr.page(1):
            pass
        assert mgr.device.stats.host_delta_writes == deltas
        # (page 2's initial flush is the only extra write)
        assert mgr.device.stats.host_writes == writes + 1


class TestBlockDeviceIpaFlow:
    def test_small_update_composed_and_programmed_in_place(self):
        mgr = blockdev_manager()
        slot = seed_page(mgr)
        invalidations_before = mgr.device.stats.page_invalidations
        with mgr.update(0) as page:
            page.update(slot, 0, b"RE")
        mgr.flush_all()
        # Whole page crossed the bus...
        assert mgr.device.stats.host_writes >= 2
        # ...but the device programmed it in place: no invalidation.
        assert mgr.device.stats.in_place_appends == 1
        assert mgr.device.stats.page_invalidations == invalidations_before

    def test_reconstruction_after_composed_write(self):
        mgr = blockdev_manager()
        slot = seed_page(mgr)
        with mgr.update(0) as page:
            page.update(slot, 7, b"XY")
        evict_everything(mgr)
        with mgr.page(0) as page:
            assert page.read(slot) == b"record-XYro-000000"

    def test_big_update_falls_back(self):
        mgr = blockdev_manager()
        slot = seed_page(mgr)
        with mgr.update(0) as page:
            page.update(slot, 0, b"0123456789")
        mgr.flush_all()
        assert mgr.device.stats.in_place_appends == 0
        assert mgr.device.stats.page_invalidations >= 1


class TestTraditionalFlow:
    def test_every_dirty_eviction_is_a_page_write(self):
        mgr = traditional_manager()
        slot = seed_page(mgr)
        for i in range(3):
            with mgr.update(0) as page:
                page.update(slot, i, b"Z")
            mgr.flush_all()
        assert mgr.device.stats.host_writes == 4  # initial + 3 updates
        assert mgr.device.stats.page_invalidations == 3
        assert mgr.stats.ipa_flushes == 0

    def test_round_trip(self):
        mgr = traditional_manager()
        slot = seed_page(mgr)
        with mgr.update(0) as page:
            page.update(slot, 0, b"NEW")
        evict_everything(mgr)
        with mgr.page(0) as page:
            assert page.read(slot)[:3] == b"NEW"


class TestChecksumProtection:
    def test_corrupted_flash_page_detected_on_fetch(self):
        mgr = native_manager()
        seed_page(mgr)
        evict_everything(mgr)
        # Corrupt the physical page body behind the device's back.
        region = mgr.device.regions[0]
        ppn = region.mapping[0]
        physical = mgr.device.chip.page_at(ppn)
        physical._data[100] ^= 0x01
        with pytest.raises(PageCorruptError):
            mgr.fetch(0)


class TestEvictionAccounting:
    def test_a_dirty_eviction_reads_its_net_bytes_once(self, monkeypatch):
        """The pool's histogram and the manager's total get one value."""
        mgr = native_manager(buffer_capacity=1)
        slot = seed_page(mgr)
        with mgr.update(0) as page:
            page.update(slot, 0, b"XYZ")
        reads = []
        net = ChangeTracker.net_changed_bytes
        monkeypatch.setattr(
            ChangeTracker,
            "net_changed_bytes",
            property(lambda tracker: reads.append(1) or net.fget(tracker)),
        )
        total = mgr.stats.net_bytes_updated
        mgr.unpin(mgr.format_page(1))  # evicts the dirty page 0
        assert mgr.pool.stats.dirty_eviction_net_bytes == [3]
        assert mgr.stats.net_bytes_updated == total + 3
        assert reads == [1]


class TestTornDeltaRepair:
    """fetch's fallback: a torn trailing delta-record is shed and the
    page comes back as of the last record that landed whole."""

    @pytest.mark.parametrize(
        "seed, cut", [(2, 3), (0, 24), (5, 39)]  # bytes of a 45-byte record
    )
    def test_torn_second_record_is_shed(self, seed, cut):
        mgr = native_manager()
        slot = seed_page(mgr)
        with mgr.update(0) as page:
            page.update(slot, 0, b"AB")
        evict_everything(mgr)  # record 1 lands in delta slot 0
        with mgr.update(0) as page:
            page.update(slot, 0, b"CD")
        chip = mgr.device.chip
        injector = FaultInjector(crash_after_ops=1, seed=seed).attach(chip)
        with pytest.raises(PowerLossError):
            mgr.flush_all()  # record 2 torn into delta slot 1
        assert injector.crash_op == f"partial_program torn at byte {cut}/53"
        FaultInjector.detach(chip)
        mgr.pool.drop_all()

        frame = mgr.fetch(0)
        assert frame.page.read(slot) == b"ABcord-zero-000000"
        assert frame.flash_delta_count == 1
        assert frame.page.verify_checksum()
        assert mgr.stats.torn_repairs == 1
        mgr.unpin(frame)


class TestLsnProgression:
    def test_updates_advance_lsn(self):
        mgr = native_manager()
        slot = seed_page(mgr)
        with mgr.page(0) as page:
            lsn1 = page.lsn
        with mgr.update(0) as page:
            page.update(slot, 0, b"A")
        with mgr.page(0) as page:
            assert page.lsn > lsn1

    def test_lsn_survives_ipa_round_trip(self):
        mgr = native_manager()
        slot = seed_page(mgr)
        with mgr.update(0) as page:
            page.update(slot, 0, b"A")
        with mgr.page(0) as page:
            lsn = page.lsn
        evict_everything(mgr)
        with mgr.page(0) as page:
            assert page.lsn == lsn


class TestAllocation:
    def test_lba_ranges_sequential(self):
        mgr = native_manager()
        assert mgr.allocate_lba_range(10) == (0, 10)
        assert mgr.allocate_lba_range(5) == (10, 15)

    def test_over_allocation_rejected(self):
        mgr = native_manager()
        with pytest.raises(ValueError):
            mgr.allocate_lba_range(mgr.device.logical_pages + 1)


class TestPageSizeLimit:
    """Slot offsets, the free lower bound and WAL change offsets are u16:
    a larger page used to construct fine and raise ``struct.error`` from
    ``SlottedPage.insert`` once a load passed the 64 KiB mark."""

    @staticmethod
    def _manager(page_size):
        geometry = FlashGeometry(
            page_size=page_size, oob_size=128, pages_per_block=4, blocks=8
        )
        device = IpaFtl(FlashChip(geometry), over_provisioning=0.25)
        return StorageManager(
            device, SCHEME_2X4, IpaBlockDevicePolicy(), buffer_capacity=4
        )

    def test_a_page_past_the_u16_offsets_is_refused(self):
        with pytest.raises(ValueError, match="65536"):
            self._manager(1 << 17)

    def test_the_largest_addressable_page_fills_to_the_end(self):
        mgr = self._manager(1 << 16)
        frame = mgr.format_page(0)
        with pytest.raises(PageFullError):
            for _ in range(400):
                with mgr.update(0) as page:
                    page.insert(b"x" * 200)
        assert frame.page.free_space < 200 + 4
        mgr.unpin(frame)
        mgr.flush_all()
