"""Heap-file edge paths: first-fit reuse, cursor behaviour, scans."""

import pytest

from repro.core.config import SCHEME_2X4
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.ftl.noftl import NoFtlDevice
from repro.storage.heap import FileFullError, HeapFile
from repro.storage.manager import IpaNativePolicy, StorageManager
from tests.reference.storage import RefHeapFile

GEO = FlashGeometry(page_size=512, oob_size=128, pages_per_block=8, blocks=32)


def make_manager(geometry=GEO):
    device = NoFtlDevice(FlashChip(geometry), over_provisioning=0.2)
    device.create_region("d", blocks=32, ipa=SCHEME_2X4)
    return StorageManager(device, SCHEME_2X4, IpaNativePolicy(), buffer_capacity=8)


class TestFirstFitReuse:
    def test_deleted_space_reused_when_range_exhausted(self):
        mgr = make_manager()
        heap = HeapFile(mgr, 1, 0, max_pages=3)
        rids = []
        # Fill the file completely.
        with pytest.raises(FileFullError):
            while True:
                rids.append(heap.insert(b"x" * 60))
        # Free room on the FIRST page, then insert again.
        first_page_rids = [r for r in rids if r.lba == 0]
        for rid in first_page_rids[:2]:
            heap.delete(rid)
        rid = heap.insert(b"y" * 60)
        assert rid.lba == 0  # first-fit found the hole
        assert heap.read(rid) == b"y" * 60

    def test_zero_pages_rejected(self):
        mgr = make_manager()
        with pytest.raises(ValueError):
            HeapFile(mgr, 1, 0, max_pages=0)

    def test_record_larger_than_any_page(self):
        mgr = make_manager()
        heap = HeapFile(mgr, 1, 0, max_pages=2)
        with pytest.raises(FileFullError):
            heap.insert(b"z" * 600)  # exceeds a 512 B page

    @pytest.mark.parametrize("heap_file", [HeapFile, RefHeapFile])
    def test_refused_before_another_page_is_formatted(self, heap_file):
        """A record no empty page holds used to format and probe every
        page left in the file (1 -> 50 pages, 101 update ops, a host
        write per page) before ``FileFullError``; the spec refuses it
        after the cursor page's probe, and so does ``HeapFile``."""
        mgr = make_manager(
            FlashGeometry(page_size=1024, oob_size=128, pages_per_block=8, blocks=32)
        )
        heap = heap_file(mgr, 1, 0, max_pages=50)
        heap.insert(b"row")
        with pytest.raises(FileFullError, match="no page can hold 2000 bytes"):
            heap.insert(b"z" * 2000)
        mgr.flush_all()
        assert mgr.stats.update_ops == 2 and mgr.device.stats.host_writes == 1
        assert len(mgr.pool) == 1 and heap.record_count == 1


class TestCursor:
    def test_cursor_sticks_to_last_page_with_space(self):
        mgr = make_manager()
        heap = HeapFile(mgr, 1, 0, max_pages=10)
        for _ in range(10):
            heap.insert(b"a" * 30)
        pages_used = heap.allocated_pages
        heap.insert(b"b" * 30)
        # Small inserts keep landing on the same page, not new ones.
        assert heap.allocated_pages == pages_used

    def test_record_count_tracks_inserts_and_deletes(self):
        mgr = make_manager()
        heap = HeapFile(mgr, 1, 0, max_pages=10)
        rids = [heap.insert(b"r" * 20) for _ in range(5)]
        heap.delete(rids[0])
        assert heap.record_count == 4


class TestScan:
    def test_scan_order_is_page_then_slot(self):
        mgr = make_manager()
        heap = HeapFile(mgr, 1, 0, max_pages=10)
        inserted = []
        for i in range(40):
            payload = bytes([i]) * 20
            heap.insert(payload)
            inserted.append(payload)
        scanned = [record for _rid, record in heap.scan()]
        assert scanned == inserted

    def test_scan_skips_tombstones(self):
        mgr = make_manager()
        heap = HeapFile(mgr, 1, 0, max_pages=10)
        rids = [heap.insert(bytes([i]) * 10) for i in range(6)]
        heap.delete(rids[1])
        heap.delete(rids[4])
        scanned = [r for _rid, r in heap.scan()]
        assert len(scanned) == 4
        assert bytes([1]) * 10 not in scanned
