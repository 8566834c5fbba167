"""Page reconstruction on fetch (paper Section 3, "Page operations").

    "Before the page is placed into the buffer frame upon being fetched,
    the storage manager checks if it contains delta-records.  If so,
    those are applied by changing the original bytes at defined offsets
    to their updated values from the delta-records.  Now the page body is
    in its up-to-date state.  Similarly, the page metadata is updated to
    its actual version from delta_metadata in the delta-record."
"""

from __future__ import annotations

from repro.core.config import (
    PAGE_FOOTER_SIZE,
    PAGE_HEADER_SIZE,
    IpaScheme,
)
from repro.core.delta import DeltaRecord, decode_delta_area

_ERASED = 0xFF
_ERASED_CHAR = b"\xff"


class ReconstructionError(Exception):
    """A delta-record targets bytes outside the page body."""


def reconstruct(
    image: bytes, scheme: IpaScheme, max_records: int | None = None
) -> tuple[bytearray, int]:
    """Apply a page image's delta-records; return (up-to-date page, count).

    The returned buffer has the *delta area reset to erased*: the buffer
    pool always holds the logical page, and the on-flash delta records it
    was reconstructed from are remembered only as the count (they still
    occupy flash slots and count against N).

    ``max_records`` caps how many delta slots are applied; crash recovery
    retries a checksum-failing page with successively smaller caps to
    shed a torn trailing record (see StorageManager).

    Raises:
        ReconstructionError: a record's pair offset lies in the header,
            the delta area or the footer — corruption, since pairs may
            only target body bytes.
        DeltaFormatError: the delta area bytes do not parse.
    """
    page = bytearray(image)
    if not scheme.enabled:
        return page, 0
    size = len(image)
    delta_start = size - scheme.tail_size
    footer_start = size - PAGE_FOOTER_SIZE
    applied = 0
    # Records fill the area left to right, so an erased first control
    # byte means a clean page (the common fetch): nothing to parse.
    if delta_start < 0 or image[delta_start] != _ERASED:
        records = decode_delta_area(
            image[delta_start:footer_start], scheme, max_records
        )
        for index, record in enumerate(records):
            _apply(page, record, index, delta_start)
        applied = len(records)
    # Scrub the delta area: the in-buffer page is the logical page.
    page[delta_start:footer_start] = _ERASED_CHAR * (footer_start - delta_start)
    return page, applied


def _apply(
    page: bytearray, record: DeltaRecord, index: int, delta_start: int
) -> None:
    for offset, value in record.pairs:
        if offset < PAGE_HEADER_SIZE or offset >= delta_start:
            raise ReconstructionError(
                f"delta-record {index} pair targets offset {offset}, "
                f"outside the body [{PAGE_HEADER_SIZE}, {delta_start})"
            )
        page[offset] = value
    page[0:PAGE_HEADER_SIZE] = record.meta_header
    page[len(page) - PAGE_FOOTER_SIZE :] = record.meta_footer
