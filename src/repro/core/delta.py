"""Delta-record wire format (paper Figure 3).

One record is::

    +---------+-----------------------+-----------------------------+
    | control | M x (offset16, val8)  | delta_metadata              |
    | 1 byte  | 3M bytes              | header copy + footer copy   |
    +---------+-----------------------+-----------------------------+

* ``control``: ``0x40 | pair_count``.  The erased state is 0xFF, and any
  value with bit 7 cleared is reachable from 0xFF by clearing bits only,
  so the control byte can be appended to an erased slot without violating
  the Flash programming rule.  ``0xFF`` therefore means "slot empty".
* pairs: little-endian 16-bit *page-absolute* offset plus the new byte
  value.  Unused pair slots stay erased (``FF FF FF``).
* ``delta_metadata``: the modified page header and footer in full —
  page metadata (LSN, slot count, checksum ...) changes on every update,
  so the paper ships it wholesale instead of as pairs.

Applying the records of a page in append order, then overlaying the last
record's metadata, reconstructs the up-to-date page (Section 3, "Page
operations").
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from itertools import chain

from repro.core.config import (
    MAX_M,
    PAGE_FOOTER_SIZE,
    PAGE_HEADER_SIZE,
    PAIR_SIZE,
    IpaScheme,
)

#: Control-byte tag: high bits 01, low nibble = pair count.
CONTROL_TAG = 0x40
_ERASED = 0xFF
_ERASED_CHAR = b"\xff"
#: The erased pair slot ``FF FF FF`` reserves this offset: a pair that
#: encoded to it would read back as "unused".
_UNUSED_OFFSET = 0xFFFF

_PAIR = struct.Struct("<HB")
#: Control byte + ``count`` pairs, one precompiled codec per pair count.
_RECORD_HEAD = tuple(
    struct.Struct("<B" + "HB" * count) for count in range(MAX_M + 1)
)


class DeltaFormatError(ValueError):
    """A delta-record buffer does not parse under the given scheme."""


def _unencodable_pair(pairs: list[tuple[int, int]]) -> DeltaFormatError:
    """The error for the first pair that has no wire representation."""
    for offset, value in pairs:
        if not 0 <= offset < _UNUSED_OFFSET:
            return DeltaFormatError(f"offset {offset} not encodable in 16 bits")
        if not 0 <= value <= 0xFF:
            return DeltaFormatError(f"value {value} is not a byte")
    return DeltaFormatError("pairs must be (offset, byte value) integers")


@dataclass
class DeltaRecord:
    """One decoded (or to-be-encoded) delta-record.

    Attributes:
        pairs: ``(page_offset, new_value)`` tuples, at most M of them.
        meta_header: Modified page header (PAGE_HEADER_SIZE bytes).
        meta_footer: Modified page footer (PAGE_FOOTER_SIZE bytes).
    """

    pairs: list[tuple[int, int]] = field(default_factory=list)
    meta_header: bytes = b"\x00" * PAGE_HEADER_SIZE
    meta_footer: bytes = b"\x00" * PAGE_FOOTER_SIZE

    def encode(self, scheme: IpaScheme) -> bytes:
        """Serialize to exactly ``scheme.record_size`` bytes.

        Raises:
            DeltaFormatError: too many pairs for M, bad metadata sizes, or
                an offset that cannot be represented in 16 bits.
        """
        if not scheme.enabled:
            raise DeltaFormatError("cannot encode a record for scheme [0x0]")
        pairs = self.pairs
        count = len(pairs)
        if count > scheme.m_bytes:
            raise DeltaFormatError(f"{count} pairs exceed M={scheme.m_bytes}")
        if len(self.meta_header) != PAGE_HEADER_SIZE:
            raise DeltaFormatError(
                f"meta_header must be {PAGE_HEADER_SIZE} bytes"
            )
        if len(self.meta_footer) != PAGE_FOOTER_SIZE:
            raise DeltaFormatError(
                f"meta_footer must be {PAGE_FOOTER_SIZE} bytes"
            )
        # struct range-checks every field (u16 offset, u8 value); the one
        # value it admits and the format does not is the reserved offset.
        try:
            head = _RECORD_HEAD[count].pack(
                CONTROL_TAG | count, *chain.from_iterable(pairs)
            )
        except struct.error:
            raise _unencodable_pair(pairs) from None
        if pairs and max(pairs)[0] >= _UNUSED_OFFSET:
            raise _unencodable_pair(pairs)
        return b"".join(
            (
                head,
                _ERASED_CHAR * (PAIR_SIZE * (scheme.m_bytes - count)),
                self.meta_header,
                self.meta_footer,
            )
        )

    @classmethod
    def decode(cls, buf: bytes, scheme: IpaScheme) -> "DeltaRecord | None":
        """Parse one record slot; None if the slot is still erased.

        Raises:
            DeltaFormatError: wrong buffer size or corrupt control byte.
        """
        if len(buf) != scheme.record_size:
            raise DeltaFormatError(
                f"slot is {len(buf)} bytes, scheme needs {scheme.record_size}"
            )
        control = buf[0]
        if control == _ERASED:
            return None
        if control & 0xF0 != CONTROL_TAG:
            raise DeltaFormatError(f"bad control byte 0x{control:02x}")
        count = control & 0x0F
        if count > scheme.m_bytes:
            raise DeltaFormatError(
                f"control claims {count} pairs but M={scheme.m_bytes}"
            )
        meta_base = 1 + scheme.m_bytes * PAIR_SIZE
        footer_base = meta_base + PAGE_HEADER_SIZE
        return cls(
            pairs=list(_PAIR.iter_unpack(buf[1 : 1 + count * PAIR_SIZE])),
            meta_header=bytes(buf[meta_base:footer_base]),
            meta_footer=bytes(buf[footer_base : footer_base + PAGE_FOOTER_SIZE]),
        )


def decode_delta_area(
    area: bytes, scheme: IpaScheme, max_records: int | None = None
) -> list[DeltaRecord]:
    """Parse every present record of a page's delta area, in append order.

    Records are appended left to right, so parsing stops at the first
    erased slot.  ``max_records`` caps how many slots are even examined —
    crash recovery uses it to drop a torn trailing record (whose bytes
    may not parse at all) and retry with one slot fewer.
    """
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
    record_size = scheme.record_size
    records: list[DeltaRecord] = []
    for start in range(0, limit * record_size, record_size):
        record = DeltaRecord.decode(area[start : start + record_size], scheme)
        if record is None:
            break
        records.append(record)
    return records
