"""The delta-record codec and ``reconstruct`` against the field-by-field
spec in ``tests.reference.core``: same bytes, same records, same page,
same errors."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PAGE_FOOTER_SIZE, PAGE_HEADER_SIZE, SCHEME_2X4, IpaScheme
from repro.core.delta import DeltaRecord, decode_delta_area
from repro.core.reconstruct import reconstruct
from tests.reference import outcome
from tests.reference.core import (
    ref_decode_delta_area,
    ref_reconstruct,
    ref_record_decode,
    ref_record_encode,
)

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
        assert outcome(record.encode, scheme) == outcome(
            ref_record_encode, record, scheme
        )

    def test_encode_rejects_the_disabled_scheme(self):
        record = DeltaRecord()
        assert outcome(record.encode, IpaScheme(0, 0)) == outcome(
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
        assert outcome(DeltaRecord.decode, bytes(buf), scheme) == (
            outcome(ref_record_decode, bytes(buf), scheme)
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
        assert outcome(reconstruct, image, scheme, cap) == outcome(
            ref_reconstruct, image, scheme, cap
        )
        footer_start = PAGE_SIZE - PAGE_FOOTER_SIZE
        area = image[footer_start - scheme.delta_area_size : footer_start]
        assert outcome(decode_delta_area, area, scheme, cap) == (
            outcome(ref_decode_delta_area, area, scheme, cap)
        )

    @pytest.mark.parametrize("size", [0, 7, PAGE_FOOTER_SIZE + 10])
    def test_image_shorter_than_the_layout(self, size):
        image = b"\xff" * size
        assert outcome(reconstruct, image, SCHEME_2X4) == outcome(
            ref_reconstruct, image, SCHEME_2X4
        )

    def test_disabled_scheme_is_a_copy(self):
        image = bytes(range(256))
        assert reconstruct(image, IpaScheme(0, 0)) == ref_reconstruct(
            image, IpaScheme(0, 0)
        )
