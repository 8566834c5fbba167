"""The WAL record and frame codecs against the field-by-field spec in
``tests.reference.wal``: same bytes, same records, same frames."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.wal import (
    FormatRecord,
    PageUpdateRecord,
    decode_frames,
    decode_records,
    encode_frame,
)
from tests.reference.wal import (
    ref_decode_frames,
    ref_decode_records,
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
        for decode in (decode_records, ref_decode_records):
            with pytest.raises(ValueError, match="corrupt log record magic 0x00"):
                decode(stream)

    def test_a_record_cut_short_is_an_error_not_a_guess(self):
        # Frames are CRC-checked before their records are parsed, so a
        # record cut short is corruption, never smaller integers.
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
        if flip is None and not tail.startswith(b"\x5c"):  # no frame magic
            assert decode_frames(stream) == payloads
