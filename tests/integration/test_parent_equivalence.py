"""The compiled page codecs and the region-classified change tracker
against the implementations they replaced.

The ``ref_*`` functions and ``RefChangeTracker`` below are the bodies
this repository ran before the codecs were compiled (per-byte loops,
per-field ``int.to_bytes``, per-column slicing), kept verbatim: they are
the specification.  Every test feeds the same random input to the
reference and to the live code and requires the same bytes, the same
decoded values, the same tracker state after every call, and the same
exception on input both must reject.
"""

import struct
import zlib
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import (
    PAGE_FOOTER_SIZE,
    PAGE_HEADER_SIZE,
    PAIR_SIZE,
    SCHEME_2X4,
    IpaScheme,
)
from repro.core.delta import DeltaFormatError, DeltaRecord, decode_delta_area
from repro.core.reconstruct import ReconstructionError, reconstruct
from repro.core.tracker import ChangeTracker
from repro.engine.schema import Column, ColumnType, Schema
from repro.engine.wal import (
    FRAME_HEADER_SIZE,
    FormatRecord,
    PageUpdateRecord,
    decode_frames,
    decode_records,
    encode_frame,
)
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.ftl.noftl import IpaRegionConfig, NoFtlDevice
from repro.storage.layout import PageFullError
from repro.storage.manager import IpaNativePolicy, StorageManager

# ---------------------------------------------------------------------- #
# Reference: ChangeTracker (byte-by-byte classification)
# ---------------------------------------------------------------------- #


class RefChangeTracker:
    def __init__(self, scheme, existing_records, header_end, body_end):
        self.scheme = scheme
        self.existing_records = existing_records
        self._header_end = header_end
        self._body_end = body_end
        self.records = []
        self.out_of_place = not scheme.enabled
        self.meta_changed = False
        self._open = None
        self.net_changed_offsets = set()
        self.meta_changed_offsets = set()
        self.op_sizes = []
        self.last_op_changes = {}
        self._open_raw = None
        self._open_meta = None

    def begin_op(self):
        if self._open_raw is not None:
            raise RuntimeError("nested update operations are not supported")
        self._open_raw = {}
        self._open_meta = {}
        if not self.out_of_place:
            self._open = {}

    def end_op(self):
        if self._open_raw is not None:
            raw, self._open_raw = self._open_raw, None
            meta, self._open_meta = self._open_meta or {}, None
            if raw:
                self.op_sizes.append(len(raw))
            self.last_op_changes = {**raw, **meta}
        if self._open is None:
            return
        changes, self._open = self._open, None
        if self.out_of_place or not changes:
            return
        if self.existing_records + len(self.records) + 1 > self.scheme.n_records:
            self.mark_out_of_place()
            return
        self.records.append(changes)

    def mark_out_of_place(self):
        self.out_of_place = True
        self.records.clear()
        self._open = None

    def on_write(self, offset, old, new):
        for i in range(len(new)):
            if old[i] == new[i]:
                continue
            pos = offset + i
            if pos < self._header_end or pos >= self._body_end:
                self.meta_changed = True
                self.meta_changed_offsets.add(pos)
                if self._open_meta is not None:
                    self._open_meta[pos] = new[i]
                continue
            self.net_changed_offsets.add(pos)
            if self._open_raw is not None:
                self._open_raw[pos] = new[i]
            if self.out_of_place:
                continue
            if self._open is None:
                self.mark_out_of_place()
                continue
            self._open[pos] = new[i]
            if len(self._open) > self.scheme.m_bytes:
                self.mark_out_of_place()

    @property
    def ipa_eligible(self):
        if self.out_of_place or not self.scheme.enabled:
            return False
        pending = len(self.records) if self.records else (
            1 if self.meta_changed else 0
        )
        return self.existing_records + pending <= self.scheme.n_records

    @property
    def dirty(self):
        return bool(
            self.records or self.meta_changed or self.net_changed_offsets
        )

    def reset_after_flush(self, new_existing_records):
        self.existing_records = new_existing_records
        self.records = []
        self.out_of_place = not self.scheme.enabled
        self.meta_changed = False
        self._open = None
        self._open_raw = None
        self._open_meta = None
        self.net_changed_offsets = set()
        self.meta_changed_offsets = set()
        self.op_sizes = []


# A small page keeps every region and both boundaries within reach of a
# random write: header [0, 24), body [24, 60), delta area + footer
# [60, 80).
HEADER_END = PAGE_HEADER_SIZE
BODY_END = 60
PAGE_END = 80

# Two-letter alphabets make equal bytes (and wholly equal writes) common.
_byte_pairs = st.lists(
    st.tuples(st.sampled_from([0, 1, 0xFF]), st.sampled_from([0, 1, 0xFF])),
    min_size=1,
    max_size=PAGE_END,
)


@st.composite
def _writes(draw):
    pairs = draw(_byte_pairs)
    offset = draw(st.integers(min_value=0, max_value=PAGE_END - len(pairs)))
    if draw(st.booleans()) and draw(st.booleans()):
        pairs = [(a, a) for a, _b in pairs]  # an equal write
    old = bytes(a for a, _b in pairs)
    new = bytes(b for _a, b in pairs)
    return ("write", offset, old, new)


_actions = st.lists(
    st.one_of(
        _writes(),
        _writes(),
        _writes(),
        st.just(("begin",)),
        st.just(("end",)),
        st.tuples(st.just("flushed"), st.integers(min_value=0, max_value=2)),
    ),
    max_size=30,
)

_schemes = st.sampled_from(
    [SCHEME_2X4, IpaScheme(1, 1), IpaScheme(3, 2), IpaScheme(2, 15), IpaScheme(0, 0)]
)


def _observable(tracker):
    return {
        "records": tracker.records,
        "out_of_place": tracker.out_of_place,
        "meta_changed": tracker.meta_changed,
        "net_changed_offsets": tracker.net_changed_offsets,
        "meta_changed_offsets": tracker.meta_changed_offsets,
        "op_sizes": tracker.op_sizes,
        "last_op_changes": tracker.last_op_changes,
        "ipa_eligible": tracker.ipa_eligible,
        "dirty": tracker.dirty,
    }


def _apply_action(tracker, action):
    """Run one action; returns the exception type it raised, if any."""
    try:
        if action[0] == "write":
            tracker.on_write(*action[1:])
        elif action[0] == "begin":
            tracker.begin_op()
        elif action[0] == "end":
            tracker.end_op()
        else:
            tracker.reset_after_flush(action[1])
    except RuntimeError as error:  # nested begin_op
        return type(error), str(error)
    return None


class TestChangeTracker:
    @given(
        scheme=_schemes,
        existing=st.integers(min_value=0, max_value=2),
        actions=_actions,
    )
    @settings(max_examples=300, deadline=None)
    def test_same_state_after_every_call(self, scheme, existing, actions):
        ref = RefChangeTracker(scheme, existing, HEADER_END, BODY_END)
        new = ChangeTracker(scheme, existing, HEADER_END, BODY_END)
        assert _observable(new) == _observable(ref)
        for action in actions:
            assert _apply_action(new, action) == _apply_action(ref, action)
            assert _observable(new) == _observable(ref), action

    @pytest.mark.parametrize("bracketed", [False, True])
    @pytest.mark.parametrize(
        "offset, length",
        [
            (HEADER_END - 2, 4),  # straddles header_end
            (BODY_END - 2, 4),  # straddles body_end
            (0, PAGE_END),  # the B+-tree's whole-page rewrite
            (HEADER_END, BODY_END - HEADER_END),  # exactly the body
            (HEADER_END + 1, SCHEME_2X4.m_bytes + 1),  # one byte past M
        ],
    )
    def test_boundary_writes(self, bracketed, offset, length):
        old, new = b"\x00" * length, b"\x01" * length
        trackers = [
            cls(SCHEME_2X4, 0, HEADER_END, BODY_END)
            for cls in (RefChangeTracker, ChangeTracker)
        ]
        for tracker in trackers:
            if bracketed:
                tracker.begin_op()
            tracker.on_write(offset, old, new)
            if bracketed:
                tracker.end_op()
        assert _observable(trackers[1]) == _observable(trackers[0])

    def test_equal_write_returns_before_looking_at_the_region(self):
        tracker = ChangeTracker(SCHEME_2X4, 0, HEADER_END, BODY_END)
        tracker.on_write(HEADER_END - 2, b"same", b"same")  # straddling
        tracker.on_write(HEADER_END, b"same", b"same")  # unbracketed body
        assert not tracker.dirty and not tracker.out_of_place


# ---------------------------------------------------------------------- #
# Reference: Schema / Column (per-column slice + codec lookup)
# ---------------------------------------------------------------------- #

_REF_STRUCT = {
    ColumnType.INT32: struct.Struct("<i"),
    ColumnType.INT64: struct.Struct("<q"),
    ColumnType.FLOAT64: struct.Struct("<d"),
}


def ref_column_width(column):
    if column.type is ColumnType.CHAR:
        return column.size
    return _REF_STRUCT[column.type].size


def ref_column_encode(column, value):
    if column.type is ColumnType.CHAR:
        raw = value.encode("ascii") if isinstance(value, str) else bytes(value)
        if len(raw) > column.size:
            raise ValueError(
                f"value of {len(raw)} bytes exceeds CHAR({column.size}) "
                f"column '{column.name}'"
            )
        return raw.ljust(column.size, b" ")
    return _REF_STRUCT[column.type].pack(value)


def ref_column_decode(column, raw):
    if column.type is ColumnType.CHAR:
        return raw.rstrip(b" ").decode("ascii")
    return _REF_STRUCT[column.type].unpack(raw)[0]


def ref_schema_encode(columns, values):
    missing = [c.name for c in columns if c.name not in values]
    if missing:
        raise ValueError(f"missing columns: {missing}")
    return b"".join(ref_column_encode(c, values[c.name]) for c in columns)


def ref_schema_decode(columns, record):
    record_size = sum(ref_column_width(c) for c in columns)
    if len(record) != record_size:
        raise ValueError(
            f"record of {len(record)} bytes, schema needs {record_size}"
        )
    out = {}
    offset = 0
    for column in columns:
        width = ref_column_width(column)
        out[column.name] = ref_column_decode(column, record[offset : offset + width])
        offset += width
    return out


def ref_encode_field(columns, name, value):
    offset = 0
    for column in columns:
        if column.name == name:
            return offset, ref_column_encode(column, value)
        offset += ref_column_width(column)
    raise KeyError(name)


_ascii = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=12
)


@st.composite
def _schema_and_row(draw):
    """(columns, row): CHAR values may overflow their column by a little."""
    kinds = draw(
        st.lists(st.sampled_from(list(ColumnType)), min_size=1, max_size=8)
    )
    columns, row = [], {}
    for i, kind in enumerate(kinds):
        name = f"c{i}"
        if kind is ColumnType.CHAR:
            size = draw(st.integers(min_value=1, max_value=10))
            columns.append(Column(name, kind, size))
            text = draw(_ascii)
            row[name] = text.encode("ascii") if draw(st.booleans()) else text
        elif kind is ColumnType.FLOAT64:
            columns.append(Column(name, kind))
            row[name] = draw(st.floats(allow_nan=False))
        else:
            bits = 31 if kind is ColumnType.INT32 else 63
            columns.append(Column(name, kind))
            row[name] = draw(
                st.integers(min_value=-(2**bits), max_value=2**bits - 1)
            )
    return columns, row


def _outcome(fn, *args):
    """The value ``fn`` returns, or the exception (type, message) it raises."""
    try:
        return ("ok", fn(*args))
    except (ValueError, KeyError, struct.error) as error:
        return ("raised", type(error), str(error))


class TestSchema:
    @given(case=_schema_and_row())
    @settings(max_examples=200, deadline=None)
    def test_record_codec(self, case):
        columns, row = case
        schema = Schema(columns)
        assert schema.record_size == sum(ref_column_width(c) for c in columns)
        assert [c.width for c in columns] == [ref_column_width(c) for c in columns]
        expected = _outcome(ref_schema_encode, columns, row)
        assert _outcome(schema.encode, row) == expected
        if expected[0] != "ok":
            assert expected[1] is ValueError  # a CHAR value overflowed
            return
        record = expected[1]
        assert schema.decode(record) == ref_schema_decode(columns, record)
        for column in columns:
            name = column.name
            assert schema.encode_field(name, row[name]) == ref_encode_field(
                columns, name, row[name]
            )
            offset, width = schema.field_span(name)
            assert column.decode(record[offset : offset + width]) == (
                ref_column_decode(column, record[offset : offset + width])
            )

    def test_char_is_space_padded_not_nul_padded(self):
        schema = Schema([Column("k", ColumnType.INT32), Column("c", ColumnType.CHAR, 6)])
        assert schema.encode({"k": 1, "c": "ab"}) == b"\x01\x00\x00\x00ab    "
        assert schema.decode(b"\x01\x00\x00\x00ab    ") == {"k": 1, "c": "ab"}

    def test_char_overflow_raises_instead_of_truncating(self):
        schema = Schema([Column("c", ColumnType.CHAR, 3)])
        with pytest.raises(ValueError, match="exceeds CHAR"):
            schema.encode({"c": "abcd"})
        with pytest.raises(ValueError, match="exceeds CHAR"):
            schema.encode_field("c", b"abcd")

    def test_missing_column_and_wrong_size(self):
        columns = [Column("a", ColumnType.INT64), Column("b", ColumnType.CHAR, 2)]
        schema = Schema(columns)
        assert _outcome(schema.encode, {"b": "x"}) == _outcome(
            ref_schema_encode, columns, {"b": "x"}
        )
        assert _outcome(schema.decode, b"short") == _outcome(
            ref_schema_decode, columns, b"short"
        )


# ---------------------------------------------------------------------- #
# Reference: delta-record codec and reconstruction
# ---------------------------------------------------------------------- #

_CONTROL_TAG = 0x40
_ERASED = 0xFF


def ref_record_encode(record, scheme):
    if not scheme.enabled:
        raise DeltaFormatError("cannot encode a record for scheme [0x0]")
    if len(record.pairs) > scheme.m_bytes:
        raise DeltaFormatError(
            f"{len(record.pairs)} pairs exceed M={scheme.m_bytes}"
        )
    if len(record.meta_header) != PAGE_HEADER_SIZE:
        raise DeltaFormatError(f"meta_header must be {PAGE_HEADER_SIZE} bytes")
    if len(record.meta_footer) != PAGE_FOOTER_SIZE:
        raise DeltaFormatError(f"meta_footer must be {PAGE_FOOTER_SIZE} bytes")
    out = bytearray([_ERASED]) * scheme.record_size
    out[0] = _CONTROL_TAG | len(record.pairs)
    for i, (offset, value) in enumerate(record.pairs):
        if not 0 <= offset < 0xFFFF:
            raise DeltaFormatError(f"offset {offset} not encodable in 16 bits")
        if not 0 <= value <= 0xFF:
            raise DeltaFormatError(f"value {value} is not a byte")
        base = 1 + i * PAIR_SIZE
        out[base : base + 2] = offset.to_bytes(2, "little")
        out[base + 2] = value
    meta_base = 1 + scheme.m_bytes * PAIR_SIZE
    out[meta_base : meta_base + PAGE_HEADER_SIZE] = record.meta_header
    out[
        meta_base + PAGE_HEADER_SIZE : meta_base + PAGE_HEADER_SIZE
        + PAGE_FOOTER_SIZE
    ] = record.meta_footer
    return bytes(out)


def ref_record_decode(buf, scheme):
    if len(buf) != scheme.record_size:
        raise DeltaFormatError(
            f"slot is {len(buf)} bytes, scheme needs {scheme.record_size}"
        )
    control = buf[0]
    if control == _ERASED:
        return None
    if control & 0xF0 != _CONTROL_TAG:
        raise DeltaFormatError(f"bad control byte 0x{control:02x}")
    count = control & 0x0F
    if count > scheme.m_bytes:
        raise DeltaFormatError(
            f"control claims {count} pairs but M={scheme.m_bytes}"
        )
    pairs = []
    for i in range(count):
        base = 1 + i * PAIR_SIZE
        offset = int.from_bytes(buf[base : base + 2], "little")
        value = buf[base + 2]
        pairs.append((offset, value))
    meta_base = 1 + scheme.m_bytes * PAIR_SIZE
    meta_header = bytes(buf[meta_base : meta_base + PAGE_HEADER_SIZE])
    meta_footer = bytes(
        buf[
            meta_base + PAGE_HEADER_SIZE : meta_base + PAGE_HEADER_SIZE
            + PAGE_FOOTER_SIZE
        ]
    )
    return DeltaRecord(pairs=pairs, meta_header=meta_header, meta_footer=meta_footer)


def ref_decode_delta_area(area, scheme, max_records=None):
    if not scheme.enabled:
        return []
    if len(area) != scheme.delta_area_size:
        raise DeltaFormatError(
            f"delta area is {len(area)} bytes, scheme needs "
            f"{scheme.delta_area_size}"
        )
    limit = scheme.n_records
    if max_records is not None:
        limit = min(limit, max_records)
    records = []
    for i in range(limit):
        slot = area[i * scheme.record_size : (i + 1) * scheme.record_size]
        record = ref_record_decode(slot, scheme)
        if record is None:
            break
        records.append(record)
    return records


def ref_reconstruct(image, scheme, max_records=None):
    page = bytearray(image)
    if not scheme.enabled:
        return page, 0
    page_size = len(image)
    footer_start = page_size - PAGE_FOOTER_SIZE
    delta_start = footer_start - scheme.delta_area_size
    records = ref_decode_delta_area(
        image[delta_start:footer_start], scheme, max_records
    )
    for index, record in enumerate(records):
        for offset, value in record.pairs:
            if offset < PAGE_HEADER_SIZE or offset >= delta_start:
                raise ReconstructionError(
                    f"delta-record {index} pair targets offset {offset}, "
                    f"outside the body [{PAGE_HEADER_SIZE}, {delta_start})"
                )
            page[offset] = value
        page[0:PAGE_HEADER_SIZE] = record.meta_header
        page[len(page) - PAGE_FOOTER_SIZE :] = record.meta_footer
    for i in range(delta_start, footer_start):
        page[i] = 0xFF
    return page, len(records)


def _delta_outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except (DeltaFormatError, ReconstructionError) as error:
        return ("raised", type(error), str(error))


_enabled_schemes = st.sampled_from(
    [SCHEME_2X4, IpaScheme(1, 1), IpaScheme(3, 2), IpaScheme(2, 15)]
)
# Offsets and values reach a little past what the format can hold.
_loose_pairs = st.lists(
    st.tuples(
        st.one_of(
            st.integers(min_value=-2, max_value=0x10001),
            st.sampled_from([0, 0xFFFE, 0xFFFF]),
        ),
        st.integers(min_value=-1, max_value=257),
    ),
    max_size=16,
)
_metadata = st.one_of(
    st.binary(min_size=PAGE_HEADER_SIZE, max_size=PAGE_HEADER_SIZE),
    st.binary(max_size=40),
)


class TestDeltaRecord:
    @given(scheme=_enabled_schemes, pairs=_loose_pairs, header=_metadata, data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_encode(self, scheme, pairs, header, data):
        if data.draw(st.booleans()):
            pairs = pairs[: scheme.m_bytes]  # exercise the pair checks, not only M
        footer = data.draw(
            st.one_of(
                st.binary(min_size=PAGE_FOOTER_SIZE, max_size=PAGE_FOOTER_SIZE),
                st.binary(max_size=12),
            )
        )
        record = DeltaRecord(pairs=pairs, meta_header=header, meta_footer=footer)
        assert _delta_outcome(record.encode, scheme) == _delta_outcome(
            ref_record_encode, record, scheme
        )

    def test_encode_rejects_the_disabled_scheme(self):
        record = DeltaRecord()
        assert _delta_outcome(record.encode, IpaScheme(0, 0)) == _delta_outcome(
            ref_record_encode, record, IpaScheme(0, 0)
        )

    @given(scheme=_enabled_schemes, data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_decode(self, scheme, data):
        size = data.draw(
            st.one_of(
                st.just(scheme.record_size),
                st.integers(min_value=0, max_value=scheme.record_size + 3),
            )
        )
        buf = bytearray(data.draw(st.binary(min_size=size, max_size=size)))
        if buf and data.draw(st.booleans()):
            # A plausible control byte, so decoding gets past the tag check.
            buf[0] = data.draw(
                st.sampled_from([0xFF, 0x40, 0x41, 0x40 | scheme.m_bytes, 0x4F])
            )
        assert _delta_outcome(DeltaRecord.decode, bytes(buf), scheme) == (
            _delta_outcome(ref_record_decode, bytes(buf), scheme)
        )


PAGE_SIZE = 512


@st.composite
def _page_images(draw):
    """(image, scheme): 0..N well-formed records, then maybe a torn one."""
    scheme = draw(_enabled_schemes)
    footer_start = PAGE_SIZE - PAGE_FOOTER_SIZE
    delta_start = footer_start - scheme.delta_area_size
    image = bytearray(draw(st.binary(min_size=PAGE_SIZE, max_size=PAGE_SIZE)))
    image[delta_start:footer_start] = b"\xff" * scheme.delta_area_size
    count = draw(st.integers(min_value=0, max_value=scheme.n_records))
    # Mostly body offsets; now and then one in the header or past the body.
    offsets = st.one_of(
        st.integers(min_value=PAGE_HEADER_SIZE, max_value=delta_start - 1),
        st.integers(min_value=0, max_value=PAGE_SIZE + 5),
    )
    for slot in range(count):
        record = DeltaRecord(
            pairs=draw(
                st.lists(
                    st.tuples(offsets, st.integers(min_value=0, max_value=255)),
                    max_size=scheme.m_bytes,
                )
            ),
            meta_header=draw(
                st.binary(min_size=PAGE_HEADER_SIZE, max_size=PAGE_HEADER_SIZE)
            ),
            meta_footer=draw(
                st.binary(min_size=PAGE_FOOTER_SIZE, max_size=PAGE_FOOTER_SIZE)
            ),
        )
        start = delta_start + slot * scheme.record_size
        image[start : start + scheme.record_size] = ref_record_encode(record, scheme)
    if count < scheme.n_records and draw(st.booleans()):
        # A torn tail: some prefix of the next slot holds arbitrary bytes.
        start = delta_start + count * scheme.record_size
        torn = draw(st.binary(min_size=1, max_size=scheme.record_size))
        image[start : start + len(torn)] = torn
    return bytes(image), scheme


class TestReconstruct:
    @given(case=_page_images(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_reconstruct_and_decode_area(self, case, data):
        image, scheme = case
        cap = data.draw(
            st.one_of(
                st.none(), st.integers(min_value=0, max_value=scheme.n_records + 1)
            )
        )
        assert _delta_outcome(reconstruct, image, scheme, cap) == _delta_outcome(
            ref_reconstruct, image, scheme, cap
        )
        footer_start = PAGE_SIZE - PAGE_FOOTER_SIZE
        area = image[footer_start - scheme.delta_area_size : footer_start]
        assert _delta_outcome(decode_delta_area, area, scheme, cap) == (
            _delta_outcome(ref_decode_delta_area, area, scheme, cap)
        )

    @pytest.mark.parametrize("size", [0, 7, PAGE_FOOTER_SIZE + 10])
    def test_image_shorter_than_the_layout(self, size):
        image = b"\xff" * size
        assert _delta_outcome(reconstruct, image, SCHEME_2X4) == _delta_outcome(
            ref_reconstruct, image, SCHEME_2X4
        )

    def test_disabled_scheme_is_a_copy(self):
        image = bytes(range(256))
        assert reconstruct(image, IpaScheme(0, 0)) == ref_reconstruct(
            image, IpaScheme(0, 0)
        )


# ---------------------------------------------------------------------- #
# Reference: WAL record and frame codecs
# ---------------------------------------------------------------------- #

_MAGIC_UPDATE = 0x5A
_MAGIC_FORMAT = 0x5B
_MAGIC_FRAME = 0x5C


def ref_update_encode(record):
    out = bytearray()
    out.append(_MAGIC_UPDATE)
    out += record.lsn.to_bytes(8, "little")
    out += record.lba.to_bytes(4, "little")
    out += len(record.changes).to_bytes(2, "little")
    for offset, value in record.changes:
        out += offset.to_bytes(2, "little")
        out.append(value)
    return bytes(out)


def ref_format_encode(record):
    out = bytearray()
    out.append(_MAGIC_FORMAT)
    out += record.lsn.to_bytes(8, "little")
    out += record.lba.to_bytes(4, "little")
    out += record.file_id.to_bytes(2, "little")
    return bytes(out)


def ref_decode_records(data):
    records = []
    pos = 0
    while pos < len(data):
        magic = data[pos]
        if magic == _ERASED:
            break
        if magic == _MAGIC_UPDATE:
            lsn = int.from_bytes(data[pos + 1 : pos + 9], "little")
            lba = int.from_bytes(data[pos + 9 : pos + 13], "little")
            count = int.from_bytes(data[pos + 13 : pos + 15], "little")
            pos += 15
            changes = []
            for _ in range(count):
                offset = int.from_bytes(data[pos : pos + 2], "little")
                changes.append((offset, data[pos + 2]))
                pos += 3
            records.append(PageUpdateRecord(lsn, lba, tuple(changes)))
        elif magic == _MAGIC_FORMAT:
            lsn = int.from_bytes(data[pos + 1 : pos + 9], "little")
            lba = int.from_bytes(data[pos + 9 : pos + 13], "little")
            file_id = int.from_bytes(data[pos + 13 : pos + 15], "little")
            pos += 15
            records.append(FormatRecord(lsn, lba, file_id))
        else:
            raise ValueError(f"corrupt log record magic 0x{magic:02x}")
    return records


def ref_encode_frame(payload):
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    return (
        bytes([_MAGIC_FRAME])
        + len(payload).to_bytes(4, "little")
        + crc.to_bytes(4, "little")
        + payload
    )


def ref_decode_frames(stream):
    frames = []
    pos = 0
    n = len(stream)
    while pos + FRAME_HEADER_SIZE <= n:
        if stream[pos] != _MAGIC_FRAME:
            break
        length = int.from_bytes(stream[pos + 1 : pos + 5], "little")
        crc = int.from_bytes(stream[pos + 5 : pos + 9], "little")
        start = pos + FRAME_HEADER_SIZE
        payload = stream[start : start + length]
        if len(payload) < length:
            break
        if (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
            break
        frames.append(payload)
        pos = start + length
    return frames


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


def _ref_encode(record):
    if isinstance(record, FormatRecord):
        return ref_format_encode(record)
    return ref_update_encode(record)


class TestWalCodecs:
    @given(records=_log_records, erased_tail=st.integers(min_value=0, max_value=5))
    @settings(max_examples=200, deadline=None)
    def test_records(self, records, erased_tail):
        encoded = [record.encode() for record in records]
        assert encoded == [_ref_encode(record) for record in records]
        stream = b"".join(encoded) + b"\xff" * erased_tail
        assert decode_records(stream) == ref_decode_records(stream) == records

    def test_unknown_magic(self):
        stream = FormatRecord(1, 2, 3).encode() + b"\x00"
        with pytest.raises(ValueError, match="corrupt log record magic 0x00"):
            decode_records(stream)
        with pytest.raises(ValueError, match="corrupt log record magic 0x00"):
            ref_decode_records(stream)

    def test_a_record_cut_short_is_an_error_not_a_guess(self):
        # The per-field slicing this replaced read a cut-short header as
        # smaller integers and carried on; frames are CRC-checked before
        # their records are parsed, so a short record is corruption.
        update = PageUpdateRecord(7, 9, ((1, 2), (3, 4))).encode()
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
        if flip is None and not tail.startswith(bytes([_MAGIC_FRAME])):
            assert decode_frames(stream) == payloads


# ---------------------------------------------------------------------- #
# Reference: StorageManager.update() as a generator context manager
# ---------------------------------------------------------------------- #


@contextmanager
def ref_update(manager, lba):
    frame = manager.fetch(lba)
    ops_before = len(frame.tracker.op_sizes)
    frame.tracker.begin_op()
    lsn = 0
    try:
        yield frame.page
        lsn = manager._take_lsn()
        frame.page.set_lsn(lsn)
    finally:
        frame.tracker.end_op()
        if len(frame.tracker.op_sizes) > ops_before:
            manager.stats.per_file_op_sizes.setdefault(
                frame.page.file_id, []
            ).append(frame.tracker.op_sizes[-1])
        if manager.wal is not None and lsn:
            manager.wal.log_update(lsn, lba, frame.tracker.last_op_changes)
            manager._txn_locked_lbas.add(lba)
        frame.mark_dirty()
        manager.stats.update_ops += 1
        manager.clock.advance(manager.host_costs.ipa_tracking_us, "host")
        frame.unpin()


GEO = FlashGeometry(page_size=1024, oob_size=128, pages_per_block=8, blocks=32)


def _manager():
    device = NoFtlDevice(FlashChip(GEO), over_provisioning=0.2)
    device.create_region(
        "data",
        blocks=32,
        ipa=IpaRegionConfig(SCHEME_2X4.n_records, SCHEME_2X4.m_bytes),
    )
    return StorageManager(device, SCHEME_2X4, IpaNativePolicy(), buffer_capacity=4)


def _update_state(manager, lba):
    frame = manager.pool.get(lba)
    return {
        "update_ops": manager.stats.update_ops,
        "per_file_op_sizes": manager.stats.per_file_op_sizes,
        "dirty": frame.dirty,
        "pin_count": frame.pin_count,
        "now_us": manager.clock.now_us,
        "breakdown": dict(manager.clock.breakdown_us),
        "next_lsn": manager._next_lsn,
        "lsn": frame.page.lsn,
        "image": frame.page.to_bytes(),
        "tracker": _observable(frame.tracker),
    }


class TestUpdateContextManager:
    def test_page_full_inside_the_block_still_runs_the_exit_work(self):
        """``HeapFile.insert`` probes pages with inserts that may raise:
        the probe is counted, charged and marks the frame dirty, and only
        the LSN stamp is skipped."""
        new, ref = _manager(), _manager()
        for manager, update in ((new, new.update), (ref, lambda lba: ref_update(ref, lba))):
            manager.unpin(manager.format_page(0))
            with update(0) as page:
                page.insert(b"r" * 400)
            manager.flush_all()  # clean frame, clock and tracker settled
            assert not manager.pool.get(0).dirty
            with pytest.raises(PageFullError):
                with update(0) as page:
                    page.insert(b"x" * 2000)
        state = _update_state(new, 0)
        assert state == _update_state(ref, 0)
        assert state["update_ops"] == 2 and state["dirty"] and state["pin_count"] == 0
        assert state["lsn"] == 1 and state["next_lsn"] == 2  # no LSN was taken

    def test_completed_update_matches(self):
        new, ref = _manager(), _manager()
        for manager, update in ((new, new.update), (ref, lambda lba: ref_update(ref, lba))):
            manager.unpin(manager.format_page(0))
            with update(0) as page:
                slot = page.insert(b"r" * 100)
            with update(0) as page:
                page.update(slot, 3, b"zz")
        assert _update_state(new, 0) == _update_state(ref, 0)

    def test_read_access_unpins_when_the_block_raises(self):
        manager = _manager()
        manager.unpin(manager.format_page(0))
        with pytest.raises(IndexError):
            with manager.page(0) as page:
                page.read(0)  # the fresh page has no slot 0
        assert manager.pool.get(0).pin_count == 0
