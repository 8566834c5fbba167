"""NSM slotted page with delta-record area (paper Figure 3)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.config import IPA_DISABLED, SCHEME_2X4, IpaScheme
from repro.storage.layout import (
    MAGIC,
    PageCorruptError,
    PageFullError,
    SlottedPage,
)

PAGE_SIZE = 1024


def fresh(scheme=SCHEME_2X4, page_size=PAGE_SIZE, page_id=7):
    return SlottedPage.fresh(page_id, page_size, scheme, file_id=3)


class TestFormat:
    def test_fresh_header_fields(self):
        page = fresh()
        assert page.magic == MAGIC
        assert page.page_id == 7
        assert page.file_id == 3
        assert page.lsn == 0
        assert page.slot_count == 0
        assert page.free_lower == 24

    def test_delta_area_reserved_and_erased(self):
        page = fresh()
        assert page.delta_start == PAGE_SIZE - 8 - SCHEME_2X4.delta_area_size
        assert page.delta_area() == b"\xff" * SCHEME_2X4.delta_area_size

    def test_disabled_scheme_has_no_delta_area(self):
        page = fresh(scheme=IPA_DISABLED)
        assert page.delta_start == PAGE_SIZE - 8
        assert page.delta_area() == b""

    def test_free_space_accounts_for_layout(self):
        page = fresh()
        # body minus one slot for the next insert
        expected = page.delta_start - 24 - 4
        assert page.free_space == expected

    def test_larger_n_m_shrinks_free_space(self):
        small = fresh(scheme=IpaScheme(1, 1))
        large = fresh(scheme=IpaScheme(8, 8))
        assert large.free_space < small.free_space


class TestRecords:
    def test_insert_read_round_trip(self):
        page = fresh()
        s0 = page.insert(b"alpha")
        s1 = page.insert(b"beta")
        assert (s0, s1) == (0, 1)
        assert page.read(0) == b"alpha"
        assert page.read(1) == b"beta"
        assert page.slot_count == 2

    def test_insert_empty_rejected(self):
        with pytest.raises(ValueError):
            fresh().insert(b"")

    def test_page_full(self):
        page = fresh()
        with pytest.raises(PageFullError):
            page.insert(b"x" * (page.free_space + 1))

    def test_fill_exactly(self):
        page = fresh()
        page.insert(b"x" * page.free_space)
        assert page.free_space == 0

    def test_update_field(self):
        page = fresh()
        page.insert(b"balance=0000000000")
        page.update(0, 8, b"42")
        assert page.read(0) == b"balance=4200000000"

    def test_update_beyond_record_rejected(self):
        page = fresh()
        page.insert(b"short")
        with pytest.raises(ValueError):
            page.update(0, 3, b"toolong")

    def test_delete_tombstones(self):
        page = fresh()
        page.insert(b"doomed")
        page.insert(b"survivor")
        page.delete(0)
        with pytest.raises(KeyError):
            page.read(0)
        assert page.read(1) == b"survivor"
        assert page.live_records() == [(1, b"survivor")]

    def test_double_delete_rejected(self):
        page = fresh()
        page.insert(b"x")
        page.delete(0)
        with pytest.raises(KeyError):
            page.delete(0)

    def test_bad_slot_rejected(self):
        page = fresh()
        with pytest.raises(IndexError):
            page.read(0)

    @given(records=st.lists(st.binary(min_size=1, max_size=40), max_size=15))
    def test_insert_round_trip_property(self, records):
        page = fresh()
        slots = []
        for r in records:
            try:
                slots.append(page.insert(r))
            except PageFullError:
                break
        for slot_no, r in zip(slots, records):
            assert page.read(slot_no) == r


class TestHeaderMutators:
    def test_set_lsn(self):
        page = fresh()
        page.set_lsn(123456789)
        assert page.lsn == 123456789


class TestChecksum:
    def test_store_and_verify(self):
        page = fresh()
        page.insert(b"data")
        page.store_checksum()
        assert page.verify_checksum()

    def test_modification_invalidates(self):
        page = fresh()
        page.insert(b"data")
        page.store_checksum()
        page.update(0, 0, b"DATA")
        assert not page.verify_checksum()

    def test_checksum_ignores_delta_area(self):
        page = fresh()
        page.insert(b"data")
        page.store_checksum()
        # Simulate a delta landing in the reserved area (direct poke).
        buf = page._buf
        buf[page.delta_start] = 0x42
        assert page.verify_checksum()


class TestValidate:
    def test_fresh_page_valid(self):
        page = fresh()
        page.insert(b"x")
        page.validate()

    def test_bad_magic_detected(self):
        page = fresh()
        page._buf[0] = 0x00
        with pytest.raises(PageCorruptError):
            page.validate()

    def test_slot_outside_body_detected(self):
        page = fresh()
        page.insert(b"x")
        pos = page._slot_pos(0)
        page._buf[pos : pos + 2] = (page.page_size - 2).to_bytes(2, "little")
        with pytest.raises(PageCorruptError):
            page.validate()


class TestWriteHook:
    def test_hook_sees_every_mutation(self):
        page = fresh()
        events = []
        page.set_write_hook(lambda off, old, new: events.append((off, old, new)))
        page.insert(b"ab")
        assert events  # tuple data + slot + header updates
        offsets = [e[0] for e in events]
        assert 24 in offsets  # record landed at free_lower
        assert 14 in offsets  # slot_count header update

    def test_hook_gets_old_and_new(self):
        page = fresh()
        page.insert(b"ab")
        events = []
        page.set_write_hook(lambda off, old, new: events.append((off, old, new)))
        page.update(0, 0, b"X")
        assert events == [(24, b"a", b"X")]

    def test_reset_delta_area_bypasses_hook(self):
        page = fresh()
        events = []
        page.set_write_hook(lambda *e: events.append(e))
        page.reset_delta_area()
        assert events == []

    def test_detach(self):
        page = fresh()
        events = []
        page.set_write_hook(lambda *e: events.append(e))
        page.set_write_hook(None)
        page.insert(b"ab")
        assert events == []


class TestRoundTripThroughBytes:
    def test_serialize_and_rewrap(self):
        page = fresh()
        page.insert(b"persist me")
        page.set_lsn(55)
        image = page.to_bytes()
        reloaded = SlottedPage(bytearray(image), SCHEME_2X4)
        assert reloaded.page_id == 7
        assert reloaded.lsn == 55
        assert reloaded.read(0) == b"persist me"
