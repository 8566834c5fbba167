"""Fetch-time page reconstruction from delta-records."""

import pytest

from repro.core.config import (
    PAGE_FOOTER_SIZE,
    PAGE_HEADER_SIZE,
    SCHEME_2X4,
    IpaScheme,
)
from repro.core.delta import DeltaRecord
from repro.core.reconstruct import ReconstructionError, reconstruct

PAGE_SIZE = 1024
FOOTER_START = PAGE_SIZE - PAGE_FOOTER_SIZE
DELTA_START = FOOTER_START - SCHEME_2X4.delta_area_size


def base_image() -> bytearray:
    img = bytearray(b"\x00" * PAGE_SIZE)
    img[0:PAGE_HEADER_SIZE] = b"h" * PAGE_HEADER_SIZE
    img[PAGE_HEADER_SIZE:DELTA_START] = bytes(
        (i % 251) for i in range(DELTA_START - PAGE_HEADER_SIZE)
    )
    img[DELTA_START:FOOTER_START] = b"\xff" * SCHEME_2X4.delta_area_size
    img[FOOTER_START:] = b"f" * PAGE_FOOTER_SIZE
    return img


def with_records(img: bytearray, records) -> bytes:
    buf = bytearray(img)
    for i, rec in enumerate(records):
        off = DELTA_START + i * SCHEME_2X4.record_size
        buf[off : off + SCHEME_2X4.record_size] = rec.encode(SCHEME_2X4)
    return bytes(buf)


def rec(pairs, header=b"H" * PAGE_HEADER_SIZE, footer=b"F" * PAGE_FOOTER_SIZE):
    return DeltaRecord(pairs=pairs, meta_header=header, meta_footer=footer)


class TestReconstruct:
    def test_no_records_identity_with_scrubbed_area(self):
        img = bytes(base_image())
        page, k = reconstruct(img, SCHEME_2X4)
        assert k == 0
        assert bytes(page[:DELTA_START]) == img[:DELTA_START]
        assert all(b == 0xFF for b in page[DELTA_START:FOOTER_START])

    def test_applies_pairs_and_metadata(self):
        img = with_records(base_image(), [rec([(100, 0xAB), (101, 0xCD)])])
        page, k = reconstruct(img, SCHEME_2X4)
        assert k == 1
        assert page[100] == 0xAB
        assert page[101] == 0xCD
        assert bytes(page[:PAGE_HEADER_SIZE]) == b"H" * PAGE_HEADER_SIZE
        assert bytes(page[FOOTER_START:]) == b"F" * PAGE_FOOTER_SIZE

    def test_records_applied_in_order(self):
        records = [
            rec([(100, 0x01)], header=b"1" * PAGE_HEADER_SIZE),
            rec([(100, 0x02)], header=b"2" * PAGE_HEADER_SIZE),
        ]
        img = with_records(base_image(), records)
        page, k = reconstruct(img, SCHEME_2X4)
        assert k == 2
        assert page[100] == 0x02  # later record wins
        assert bytes(page[:PAGE_HEADER_SIZE]) == b"2" * PAGE_HEADER_SIZE

    def test_disabled_scheme_returns_copy(self):
        img = bytes(base_image())
        page, k = reconstruct(img, IpaScheme(0, 0))
        assert k == 0
        assert bytes(page) == img

    def test_offset_in_header_rejected(self):
        img = with_records(base_image(), [rec([(2, 0x01)])])
        with pytest.raises(ReconstructionError):
            reconstruct(img, SCHEME_2X4)

    def test_offset_in_delta_area_rejected(self):
        img = with_records(base_image(), [rec([(DELTA_START + 1, 0x01)])])
        with pytest.raises(ReconstructionError):
            reconstruct(img, SCHEME_2X4)

    def test_untouched_body_bytes_preserved(self):
        img = with_records(base_image(), [rec([(100, 0xAB)])])
        page, _ = reconstruct(img, SCHEME_2X4)
        original = base_image()
        assert page[99] == original[99]
        assert page[102:DELTA_START] == original[102:DELTA_START]


class TestCountRecords:
    """The record count is ``reconstruct``'s second result."""

    def test_counts(self):
        img0 = bytes(base_image())
        assert reconstruct(img0, SCHEME_2X4)[1] == 0
        img2 = with_records(base_image(), [rec([(100, 1)]), rec([(200, 2)])])
        assert reconstruct(img2, SCHEME_2X4)[1] == 2

    def test_disabled_scheme(self):
        assert reconstruct(bytes(base_image()), IpaScheme(0, 0))[1] == 0
