"""In-Page Logging baseline: log buffering, merges, read overhead."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.config import IPA_DISABLED
from repro.baselines.ipl import (
    IplConfig,
    IplPolicy,
    IplStore,
    decode_entries,
    diff_pairs,
    encode_entries,
)
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.ftl.interface import FlashBackend
from repro.storage.manager import StorageManager

GEO = FlashGeometry(page_size=1024, oob_size=64, pages_per_block=8, blocks=16)


def make_store(log_pages=2, sector=256):
    chip = FlashChip(GEO)
    return IplStore(
        chip, IplConfig(log_pages_per_block=log_pages, sector_size=sector)
    )


def image(tag: int, size=1024) -> bytes:
    return bytes([tag]) * size


class TestEntryCodec:
    def test_round_trip(self):
        entries = encode_entries(7, [(100, 1), (200, 2)], max_bytes=256)
        assert len(entries) == 1
        decoded = decode_entries(entries[0])
        assert decoded == [(7, [(100, 1), (200, 2)])]

    def test_split_large_updates(self):
        pairs = [(i, i % 256) for i in range(100)]
        entries = encode_entries(3, pairs, max_bytes=64)
        assert len(entries) > 1
        assert all(len(e) <= 64 for e in entries)
        merged = []
        for e in entries:
            for lba, ps in decode_entries(e):
                assert lba == 3
                merged.extend(ps)
        assert merged == pairs

    def test_erased_sector_is_empty(self):
        assert decode_entries(b"\xff" * 256) == []

    def test_stream_of_entries(self):
        stream = b"".join(
            encode_entries(1, [(10, 1)], 256) + encode_entries(2, [(20, 2)], 256)
        )
        assert decode_entries(stream) == [(1, [(10, 1)]), (2, [(20, 2)])]

    @given(
        pairs=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1023),
                st.integers(min_value=0, max_value=255),
            ),
            min_size=1,
            max_size=60,
            unique_by=lambda p: p[0],
        )
    )
    def test_codec_property(self, pairs):
        entries = encode_entries(5, pairs, 128)
        out = []
        for e in entries:
            for _lba, ps in decode_entries(e):
                out.extend(ps)
        assert out == pairs


class TestDiffPairs:
    def test_diff(self):
        old = b"\x00" * 8
        new = b"\x00\x01\x00\x02\x00\x00\x00\x03"
        assert diff_pairs(old, new) == [(1, 1), (3, 2), (7, 3)]

    def test_identical(self):
        assert diff_pairs(b"abc", b"abc") == []


class TestIplStore:
    def test_backend_protocol(self):
        assert isinstance(make_store(), FlashBackend)

    def test_first_write_then_read(self):
        store = make_store()
        store.first_write(0, image(7))
        assert store.read_page(0) == image(7)

    def test_double_first_write_rejected(self):
        store = make_store()
        store.first_write(0, image(1))
        with pytest.raises(ValueError):
            store.first_write(0, image(2))

    def test_read_unwritten_raises(self):
        store = make_store()
        with pytest.raises(KeyError):
            store.read_page(0)

    def test_log_applied_on_read(self):
        store = make_store()
        store.first_write(0, image(0))
        store.log_update(0, [(10, 0xAA), (11, 0xBB)])
        data = store.read_page(0)
        assert data[10:12] == b"\xaa\xbb"
        assert data[0] == 0

    def test_logs_apply_in_order(self):
        store = make_store()
        store.first_write(0, image(0))
        store.log_update(0, [(10, 0x01)])
        store.log_update(0, [(10, 0x02)])
        assert store.read_page(0)[10] == 0x02

    def test_sector_flush_on_buffer_full(self):
        store = make_store(sector=64)
        store.first_write(0, image(0))
        # Each entry: 6 + 3 = 9 bytes; 8 of them > 64 => at least one flush.
        for i in range(8):
            store.log_update(0, [(20 + i, i)])
        assert store.stats.log_sector_flushes >= 1
        data = store.read_page(0)
        assert data[20:28] == bytes(range(8))

    def test_flushed_logs_survive_and_apply(self):
        store = make_store(sector=64)
        store.first_write(0, image(0))
        for i in range(30):
            store.log_update(0, [(100 + i, i)])
        store.flush_log_buffers()
        assert store.read_page(0)[100:130] == bytes(range(30))

    def test_merge_when_log_region_full(self):
        store = make_store(log_pages=1, sector=256)
        store.first_write(0, image(0))
        # 1 log page x 4 sectors; hammer updates until merge.
        for i in range(600):
            store.log_update(0, [(100 + (i % 200), i % 256)])
        assert store.stats.merges >= 1
        assert store.stats.gc_erases >= 1

    def test_read_correct_after_merge(self):
        store = make_store(log_pages=1, sector=256)
        store.first_write(0, image(0))
        store.first_write(1, image(1))
        last = {}
        for i in range(600):
            off = 100 + (i % 150)
            store.log_update(0, [(off, i % 256)])
            last[off] = i % 256
        data = store.read_page(0)
        for off, val in last.items():
            assert data[off] == val
        assert store.read_page(1) == image(1)  # neighbour page untouched

    def test_read_overhead_counts_log_pages(self):
        # IPL's structural cost: reads touch data page + log pages.
        store = make_store(log_pages=2, sector=256)
        store.first_write(0, image(0))
        reads_before = store.stats.host_reads
        store.read_page(0)
        assert store.stats.host_reads - reads_before == 1  # no logs yet
        for i in range(120):
            store.log_update(0, [(100 + (i % 100), i % 256)])
        store.flush_log_buffers()
        reads_before = store.stats.host_reads
        store.read_page(0)
        assert store.stats.host_reads - reads_before >= 2  # data + log page(s)

    def test_write_page_generic_path(self):
        store = make_store()
        store.write_page(0, image(0))
        modified = bytearray(image(0))
        modified[5] = 0x99
        store.write_page(0, bytes(modified))
        assert store.read_page(0)[5] == 0x99

    def test_write_delta_unsupported(self):
        store = make_store()
        assert store.write_delta(0, 0, b"x") is False


class TestIplPolicy:
    def make_manager(self, buffer_capacity=4):
        store = make_store(log_pages=2, sector=256)
        return StorageManager(
            store, IPA_DISABLED, IplPolicy(), buffer_capacity=buffer_capacity
        )

    def test_update_round_trip_through_logs(self):
        mgr = self.make_manager()
        frame = mgr.format_page(0)
        with mgr.update(0) as page:
            slot = page.insert(b"record-000")
        mgr.unpin(frame)
        mgr.flush_all()
        with mgr.update(0) as page:
            page.update(slot, 7, b"ABC")
        mgr.flush_all()
        mgr.device.flush_log_buffers()
        mgr.pool.drop_all()
        with mgr.page(0) as page:
            assert page.read(slot) == b"record-ABC"

    def test_update_eviction_writes_log_sector_not_page(self):
        mgr = self.make_manager()
        frame = mgr.format_page(0)
        with mgr.update(0) as page:
            slot = page.insert(b"record-000")
        mgr.unpin(frame)
        mgr.flush_all()
        programs_before = mgr.device.chip.stats.page_programs
        flushes_before = mgr.device.stats.log_sector_flushes
        with mgr.update(0) as page:
            page.update(slot, 7, b"A")
        mgr.flush_all()
        # Eviction persists the log sector (durability), but no whole
        # data page is rewritten.
        assert mgr.device.chip.stats.page_programs == programs_before
        assert mgr.device.stats.log_sector_flushes == flushes_before + 1

    def test_checksum_verified_after_log_reconstruction(self):
        mgr = self.make_manager(buffer_capacity=2)
        for lba in range(2):
            frame = mgr.format_page(lba)
            with mgr.update(lba) as page:
                page.insert(bytes([lba]) * 64)
            mgr.unpin(frame)
        mgr.flush_all()
        for round_ in range(6):
            for lba in range(2):
                with mgr.update(lba) as page:
                    page.update(0, round_, bytes([round_ + 0x41]))
                mgr.flush_all()
        mgr.device.flush_log_buffers()
        mgr.pool.drop_all()
        with mgr.page(0) as page:  # fetch verifies checksum internally
            assert page.read(0)[:6] == b"ABCDEF"
