"""NSM slotted page with delta-record area (paper Figure 3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import IPA_DISABLED, MAX_M, MAX_N, SCHEME_2X4, IpaScheme
from repro.core.delta import DeltaRecord
from repro.core.reconstruct import reconstruct
from repro.storage.layout import (
    MAGIC,
    PageCorruptError,
    PageFullError,
    SlottedPage,
)
from repro.storage.manager import compose_append_image

PAGE_SIZE = 1024


def fresh(scheme=SCHEME_2X4, page_size=PAGE_SIZE, page_id=7):
    return SlottedPage.fresh(page_id, page_size, scheme, file_id=3)


@pytest.mark.parametrize("page_size", [512 << k for k in range(8)])
def test_delta_area_placed_once_for_every_scheme(page_size):
    """The page, reconstruction and the Scenario-2 image agree on where
    the delta area starts: the paper's N x (1 + 3M + delta_metadata)
    bytes before the 8-byte footer, for every N x M and page size."""
    meta_only = DeltaRecord(meta_header=bytes(24), meta_footer=bytes(8))
    for n in range(1, MAX_N + 1):
        for m in range(1, MAX_M + 1):
            scheme = IpaScheme(n, m)
            start = page_size - 8 - n * (1 + 3 * m + 32)
            if start < 24:  # no room for the header: the page refuses
                with pytest.raises(ValueError):
                    SlottedPage(bytearray(page_size), scheme)
                continue
            assert SlottedPage(bytearray(page_size), scheme).delta_start == start
            erased = b"\xff" * (page_size - 8 - start)
            flash = bytes(start) + erased + bytes(8)
            offset, image = compose_append_image(
                flash, [meta_only.encode(scheme)], scheme, 0
            )
            assert offset == start
            page, count = reconstruct(image, scheme)
            assert count == 1
            # Everything outside the scrubbed range is zero.
            assert page.find(b"\xff") == start
            assert page.count(b"\xff") == len(erased)
            assert page[start : page_size - 8] == erased


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


class _Recorder:
    """Every change the page reports, in order: ``("write", offset, old,
    new)`` with byte strings, ``("stamp", offset, width, old, new)`` with
    integers."""

    def __init__(self):
        self.events = []

    def on_write(self, offset, old, new):
        self.events.append(("write", offset, bytes(old), bytes(new)))

    def on_stamp(self, offset, width, old, new):
        self.events.append(("stamp", offset, width, old, new))

    def write_op(self, offset, old, new, at, old_stamp, stamp, runs):
        """One body write and the 8-byte LSN stamp, as ``ChangeTracker``
        hears them."""
        self.on_write(offset, old, new)
        self.on_stamp(at, 8, old_stamp, stamp)
        return len(new), None

    def insert_op(
        self, offset, old, new, slot_at, old_slot, slot, count_at, old_count,
        count, at, old_stamp, stamp, runs,
    ):
        """The record, its slot, the 4-byte slot count + free lower stamp
        and the 8-byte LSN stamp, as ``ChangeTracker`` hears them."""
        self.on_write(offset, old, new)
        self.on_write(slot_at, old_slot, slot)
        self.on_stamp(count_at, 4, old_count, count)
        self.on_stamp(at, 8, old_stamp, stamp)
        return len(new), None


class TestWriteHook:
    def test_hook_sees_every_mutation(self):
        page = fresh()
        recorder = _Recorder()
        page.set_observer(recorder)
        page.insert(b"ab")
        writes = [e for e in recorder.events if e[0] == "write"]
        assert writes  # tuple data + slot
        assert 24 in [e[1] for e in writes]  # record landed at free_lower
        # slot_count 0 -> 1 and free_lower 24 -> 26: one header stamp.
        stamps = [e for e in recorder.events if e[0] == "stamp"]
        assert stamps == [("stamp", 14, 4, 0 | 24 << 16, 1 | 26 << 16)]

    def test_hook_gets_old_and_new(self):
        page = fresh()
        page.insert(b"ab")
        recorder = _Recorder()
        page.set_observer(recorder)
        page.update(0, 0, b"X")
        assert recorder.events == [("write", 24, b"a", b"X")]

    def test_reset_delta_area_bypasses_hook(self):
        page = fresh()
        page.insert(b"ab")
        recorder = _Recorder()
        page.set_observer(recorder)
        page.reset_delta_area()
        assert recorder.events == []

    def test_update_stamped_is_heard_whole_before_it_is_written(self):
        page = fresh()
        page.insert(b"balance=0000000000")
        page.set_lsn(0x1FF)
        before = page.to_bytes()
        recorder = _Recorder()

        def heard(*op):
            recorder.events.append(("op", *op, page.to_bytes()))
            return 2, []

        recorder.write_op = heard
        page.set_observer(recorder)
        assert page.update_stamped(0, 8, b"42", 0x200, True) == (2, [])
        assert recorder.events == [
            ("op", 24 + 8, b"00", b"42", 6, 0x1FF, 0x200, True, before)
        ]
        assert page.read(0) == b"balance=4200000000"
        assert page.lsn == 0x200

    @pytest.mark.parametrize(
        "slot_no, field_offset, error",
        [(1, 0, IndexError), (0, 17, ValueError), (0, -1, ValueError)],
    )
    def test_update_stamped_of_no_field_changes_nothing(
        self, slot_no, field_offset, error
    ):
        page = fresh()
        page.insert(b"balance=0000000000")
        before = page.to_bytes()
        recorder = _Recorder()
        page.set_observer(recorder)
        with pytest.raises(error):
            page.update_stamped(slot_no, field_offset, b"42", 9, False)
        assert recorder.events == [] and page.to_bytes() == before

    def test_update_stamped_refused_by_the_observer_changes_nothing(self):
        page = fresh()
        page.insert(b"balance=0000000000")
        before = page.to_bytes()
        recorder = _Recorder()

        def refuse(*_op):
            raise RuntimeError("nested update operations are not supported")

        recorder.write_op = refuse
        page.set_observer(recorder)
        with pytest.raises(RuntimeError):
            page.update_stamped(0, 8, b"42", 9, False)
        assert page.to_bytes() == before

    def test_insert_stamped_is_heard_whole_before_it_is_written(self):
        page = fresh()
        page.insert(b"first")
        page.set_lsn(0x1FF)
        before = page.to_bytes()
        recorder = _Recorder()

        def heard(*op):
            recorder.events.append(("op", *op, page.to_bytes()))
            return 6, []

        recorder.insert_op = heard
        page.set_observer(recorder)
        assert page.insert_stamped(b"second", 0x200, True) == (1, 6, [])
        slot_at = page.delta_start - 2 * 4
        assert recorder.events == [(
            "op",
            29, before[29:35], b"second",
            slot_at, before[slot_at : slot_at + 4], bytes([29, 0, 6, 0]),
            14, 1 | 29 << 16, 2 | 35 << 16,
            6, 0x1FF, 0x200, True,
            before,
        )]
        assert page.read(1) == b"second" and page.read(0) == b"first"
        assert page.slot_count == 2 and page.free_lower == 35
        assert page.lsn == 0x200

    @pytest.mark.parametrize(
        "record, error", [(b"", ValueError), (b"x" * 1000, PageFullError)]
    )
    def test_insert_stamped_that_does_not_fit_reports_nothing(self, record, error):
        page = fresh()
        page.insert(b"first")
        before = page.to_bytes()
        recorder = _Recorder()
        page.set_observer(recorder)
        with pytest.raises(error):
            page.insert_stamped(record, 9, False)
        assert recorder.events == [] and page.to_bytes() == before

    def test_insert_stamped_refused_by_the_observer_changes_nothing(self):
        page = fresh()
        page.insert(b"first")
        before = page.to_bytes()
        recorder = _Recorder()

        def refuse(*_op):
            raise RuntimeError("nested update operations are not supported")

        recorder.insert_op = refuse
        page.set_observer(recorder)
        with pytest.raises(RuntimeError):
            page.insert_stamped(b"second", 9, False)
        assert page.to_bytes() == before

    def test_detach(self):
        page = fresh()
        recorder = _Recorder()
        page.set_observer(recorder)
        page.set_observer(None)
        page.insert(b"ab")
        page.set_lsn(7)
        page.store_checksum()
        assert recorder.events == []


_page_calls = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.binary(min_size=1, max_size=120)),
        st.tuples(
            st.just("update"),
            st.integers(min_value=0, max_value=12),
            st.integers(min_value=0, max_value=40),
            st.binary(min_size=1, max_size=24),
        ),
        st.tuples(
            st.just("update_stamped"),  # mostly fields that exist
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=8),
            st.binary(min_size=1, max_size=8),
            st.integers(0, 2**64 - 1),
            st.booleans(),
        ),
        st.tuples(
            st.just("insert_stamped"),  # empty or too long: refused
            st.binary(max_size=120),
            st.integers(0, 2**64 - 1),
            st.booleans(),
        ),
        st.tuples(st.just("delete"), st.integers(min_value=0, max_value=12)),
        st.tuples(st.just("compact")),
        st.tuples(
            st.just("set_lsn"),
            st.one_of(st.integers(0, 3), st.integers(0, 2**64 - 1)),
        ),
        st.tuples(st.just("store_checksum")),
        st.tuples(st.just("reset_delta_area")),
    ),
    max_size=40,
)


class TestEveryChangeReported:
    @given(calls=_page_calls)
    @settings(max_examples=150, deadline=None)
    def test_reports_equal_the_buffer_diff(self, calls):
        """After every call, the reported changes replayed over the
        pre-call image give the page, old values included, and name
        exactly the bytes that differ: body bytes as writes, the page's
        header/footer fields as stamps."""
        page = fresh(page_size=512)
        recorder = _Recorder()
        page.set_observer(recorder)
        for call in calls:
            before = page.to_bytes()
            recorder.events.clear()
            try:
                getattr(page, call[0])(*call[1:])
            except (PageFullError, KeyError, IndexError, ValueError):
                pass
            after = page.to_bytes()
            if call[0] == "reset_delta_area":
                assert recorder.events == []  # composing an image, untracked
                continue
            replay = bytearray(before)
            reported = {}
            for kind, offset, *change in recorder.events:
                if kind == "write":
                    old, new = change
                else:
                    width, old, new = change
                    old = old.to_bytes(width, "little")
                    new = new.to_bytes(width, "little")
                end = offset + len(new)
                if kind == "write":
                    assert 24 <= offset and end <= page.delta_start, call
                else:
                    assert end <= 24 or offset >= page.delta_start, call
                assert replay[offset:end] == old, call
                replay[offset:end] = new
                for i, (a, b) in enumerate(zip(old, new)):
                    if a != b:
                        reported[offset + i] = b
            assert replay == after, call
            changed = {i: b for i, (a, b) in enumerate(zip(before, after)) if a != b}
            assert reported == changed, call


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
