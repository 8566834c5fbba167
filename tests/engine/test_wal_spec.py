"""The WAL record and frame codecs against the field-by-field spec in
``tests.reference.wal``: same bytes, same records, same frames."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PAGE_HEADER_SIZE, SCHEME_2X4
from repro.core.tracker import ChangeTracker
from repro.engine.wal import (
    FormatRecord,
    PageUpdateRecord,
    WriteAheadLog,
    decode_frames,
    decode_records,
    encode_frame,
)
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from tests.reference.core import RefChangeTracker
from tests.reference.wal import (
    ref_decode_frames,
    ref_decode_records,
    ref_encode,
    ref_encode_frame,
    ref_format_encode,
    ref_update_encode,
)

_lsns = st.integers(min_value=0, max_value=2**64 - 1)
_lbas = st.integers(min_value=0, max_value=2**32 - 1)
_u16 = st.integers(min_value=0, max_value=0xFFFF)
_update_records = st.builds(
    PageUpdateRecord,
    _lsns,
    _lbas,
    st.lists(
        st.tuples(_u16, st.integers(min_value=0, max_value=255)), max_size=80
    ).map(tuple),
)
_format_records = st.builds(FormatRecord, _lsns, _lbas, _u16)
_log_records = st.lists(st.one_of(_update_records, _format_records), max_size=8)


class TestWalCodecs:
    @given(records=_log_records, erased_tail=st.integers(min_value=0, max_value=5))
    @settings(max_examples=200, deadline=None)
    def test_records(self, records, erased_tail):
        """Format records encode as the spec does (update records are
        built from runs by ``log_update``: see
        ``TestUpdateRecordsFromTheTracker``); both decode as it does."""
        formats = [r for r in records if isinstance(r, FormatRecord)]
        assert [r.encode() for r in formats] == [ref_format_encode(r) for r in formats]
        stream = b"".join(ref_encode(r) for r in records) + b"\xff" * erased_tail
        assert decode_records(stream) == ref_decode_records(stream) == records

    def test_unknown_magic(self):
        stream = FormatRecord(1, 2, 3).encode() + b"\x00"
        for decode in (decode_records, ref_decode_records):
            with pytest.raises(ValueError, match="corrupt log record magic 0x00"):
                decode(stream)

    def test_a_record_cut_short_is_an_error_not_a_guess(self):
        # Frames are CRC-checked before their records are parsed, so a
        # record cut short is corruption, never smaller integers.
        update = ref_update_encode(PageUpdateRecord(7, 9, ((1, 2), (3, 4))))
        for cut in (1, 14, len(update) - 1):
            with pytest.raises(ValueError, match="cut short"):
                decode_records(update[:cut])

    @given(
        payloads=st.lists(st.binary(max_size=60), max_size=6),
        tail=st.binary(max_size=30),
        flip=st.one_of(st.none(), st.integers(min_value=0, max_value=400)),
    )
    @settings(max_examples=300, deadline=None)
    def test_frames(self, payloads, tail, flip):
        frames = [encode_frame(payload) for payload in payloads]
        assert frames == [ref_encode_frame(payload) for payload in payloads]
        stream = bytearray(b"".join(frames) + tail)
        if flip is not None and stream:
            stream[flip % len(stream)] ^= 0x10  # a torn or corrupt byte
        stream = bytes(stream)
        assert decode_frames(stream) == ref_decode_frames(stream)
        if flip is None and not tail.startswith(b"\x5c"):  # no frame magic
            assert decode_frames(stream) == payloads


# A page with room for record-sized writes: header [0, 24), body
# [24, 300), delta area + footer [300, 340).
HEADER_END = PAGE_HEADER_SIZE
BODY_END = 300
PAGE_END = 340
# Erased bytes, zeros and a few values in between, drawn in bulk: a
# drawn byte picks one of these by its residue, or (residue 5 or 6, in a
# write) keeps the byte it overwrites.
_VALUES = (0xFF, 0x00, 0x01, 0x7F, 0xFE)
_PICK = bytes(_VALUES[b % 7 % 5] for b in range(256))
_sizes = st.one_of(
    st.integers(min_value=1, max_value=16), st.integers(min_value=17, max_value=120)
)
#: Where a write starts: near a region boundary (so it straddles it), or
#: near the last write (so small writes land on an earlier span).
_anchors = st.sampled_from(["header_end", "body", "body_end", "last"])
#: A page field: the LSN, slot count + free lower, free lower alone, or
#: any 1-8 bytes of the header or of the delta area + footer.
_fields = st.one_of(
    st.sampled_from([(6, 8), (14, 4), (16, 2)]),
    st.tuples(st.integers(min_value=0, max_value=HEADER_END - 8), st.just(8)),
    st.tuples(
        st.integers(min_value=BODY_END, max_value=PAGE_END - 4),
        st.sampled_from([1, 2, 4]),
    ),
)


@st.composite
def _write(draw, image, last):
    """A write over ``image``: some of its bytes keep their old value
    (unchanged bytes inside), and some writes change nothing."""
    size = draw(_sizes)
    anchor = draw(_anchors)
    base = {"header_end": HEADER_END, "body": 150, "body_end": BODY_END}.get(
        anchor, last
    )
    offset = base + draw(st.integers(min_value=-size, max_value=8))
    offset = max(0, min(offset, PAGE_END - size))
    old = bytes(image[offset : offset + size])
    if draw(st.integers(min_value=0, max_value=7)) == 0:
        return "write", offset, old, old
    fresh = draw(st.binary(min_size=size, max_size=size))
    new = bytes(o if f % 7 >= 5 else _VALUES[f % 7] for o, f in zip(old, fresh))
    return "write", offset, old, new


@st.composite
def _stamp(draw, image):
    offset, width = draw(_fields)
    old = int.from_bytes(image[offset : offset + width], "little")
    if draw(st.booleans()):
        new = old  # an unchanged field
    else:
        new = draw(st.integers(min_value=0, max_value=(1 << (8 * width)) - 1))
    return "stamp", offset, width, old, new


def _log_one_op(trackers, wal, lsn, lba, actions):
    """Run one op's writes and stamps through the spec tracker and the
    real one, log the real one's runs, and check the record."""
    ref, new = trackers
    for tracker in trackers:
        tracker.begin_op()
        for action in actions:
            getattr(tracker, "on_" + action[0])(*action[1:])
        tracker.end_op()
    expected = ref.last_op_changes
    before = wal.stats.records_logged
    wal.log_update(lsn, lba, new.last_op_runs)
    wal.commit()
    if not expected:  # a zero-change op logs nothing
        assert new.last_op_runs == []
        assert wal.stats.records_logged == before
        return
    record = PageUpdateRecord(lsn, lba, tuple(sorted(expected.items())))
    assert wal.durable_frames()[-1] == ref_update_encode(record)


def _trackers_and_log():
    trackers = tuple(
        cls(SCHEME_2X4, 0, HEADER_END, BODY_END)
        for cls in (RefChangeTracker, ChangeTracker)
    )
    wal = WriteAheadLog(FlashChip(FlashGeometry(4096, 16, pages_per_block=4, blocks=4)))
    return trackers, wal


class TestUpdateRecordsFromTheTracker:
    """The record ``log_update`` writes from a real tracker's runs is the
    per-byte reference's: the spec tracker's ``last_op_changes``, sorted,
    through the field-by-field encoder."""

    @given(data=st.data(), lba=_lbas)
    @settings(max_examples=300, deadline=None)
    def test_same_bytes_as_the_per_byte_record(self, data, lba):
        image = bytearray(
            data.draw(st.binary(min_size=PAGE_END, max_size=PAGE_END)).translate(_PICK)
        )
        trackers, wal = _trackers_and_log()
        last = 150
        for lsn in range(1, data.draw(st.integers(min_value=1, max_value=4)) + 1):
            actions = []
            for _ in range(data.draw(st.integers(min_value=0, max_value=5))):
                if data.draw(st.integers(min_value=0, max_value=3)):
                    action = data.draw(_write(image, last))
                    _kind, last, _old, after = action
                    image[last : last + len(after)] = after
                else:
                    action = data.draw(_stamp(image))
                    _kind, offset, width, _old, after = action
                    image[offset : offset + width] = after.to_bytes(width, "little")
                actions.append(action)
            _log_one_op(trackers, wal, lsn, lba, actions)

    @pytest.mark.parametrize(
        "actions",
        [
            # One stamp whose first byte did not change.
            [("stamp", 6, 8, 0x0100, 0x0200)],
            # One stamp whose changed bytes are not adjacent.
            [("stamp", 14, 4, 0x00200003, 0x00880004)],
            # Two stamps, the later one lower on the page.
            [("stamp", 14, 4, 0, 0x01010101), ("stamp", 6, 8, 0, 0x0102030405060708)],
            # A stamp whose changed bytes are not adjacent (slot count
            # low byte, free lower), then the LSN.
            [("stamp", 14, 4, 0x00200003, 0x00880004), ("stamp", 6, 8, 9, 10)],
            # Stamps over one byte: the later value wins.
            [("stamp", 14, 4, 0, 0x01010101), ("stamp", 16, 2, 0x0101, 0x0202)],
            # A footer stamp, a header stamp and a body write between.
            [
                ("stamp", BODY_END + 4, 4, 0, 0xAABBCCDD),
                ("write", 100, b"\x00\x00", b"\x01\x02"),
                ("stamp", 6, 8, 1, 2),
            ],
            # Small writes out of order: the first and last written are
            # as far apart as there are writes.
            [
                ("write", 100, b"\x00", b"\x01"),
                ("write", 105, b"\x00", b"\x02"),
                ("write", 102, b"\x00", b"\x03"),
                ("stamp", 6, 8, 1, 2),
            ],
            # Small writes on both sides of a record-sized span.
            [
                ("write", 150, b"\xff" * 40, b"r" * 20 + b"\xff" + b"s" * 19),
                ("write", 100, b"\x00", b"\x01"),
                ("write", 200, b"\x00\x00", b"\x03\x04"),
                ("stamp", 6, 8, 1, 2),
            ],
        ],
    )
    def test_stamp_and_write_orders(self, actions):
        trackers, wal = _trackers_and_log()
        _log_one_op(trackers, wal, 1, 2, actions)
