"""NSM slotted-page layout with a delta-record area (paper Figure 3).

::

    +--------------------------------------------------------------+
    | header (24 B)                                                |
    | tuple data  (grows upward)                                   |
    |                     ... free space (erased, 0xFF) ...        |
    | slot array  (grows downward from the delta area)             |
    | delta-record area  (N x record_size bytes, erased when clean)|
    | footer (8 B)                                                 |
    +--------------------------------------------------------------+

Two deliberate choices support IPA:

* free space and the delta area are kept in the erased state (0xFF), so a
  page image written to Flash leaves those cells unprogrammed and
  therefore *appendable* later;
* every mutation funnels through :meth:`SlottedPage._write`, which
  reports ``(offset, old, new)`` to an attached change tracker — the
  paper's "change tracking in the buffer [with] min. computational
  overhead".

Header fields (24 bytes):
  magic(2) page_id(4) lsn(8) slot_count(2) free_lower(2) flags(2)
  file_id(2) reserved(2)
Footer fields (8 bytes):
  checksum(4) page_type(2) reserved(2)
"""

from __future__ import annotations

import struct
import zlib
from typing import Callable, Optional

from repro.core.config import (
    PAGE_FOOTER_SIZE,
    PAGE_HEADER_SIZE,
    IpaScheme,
)

MAGIC = 0x4E50  # "NP" — NSM page
SLOT_SIZE = 4  # offset(2) + length(2)
_ERASED_CHAR = b"\xff"

# Fixed-offset codecs (all little-endian), read off the live buffer.
_HEADER = struct.Struct("<HIQHHHHH")  # the eight header fields, in order
_SLOT = struct.Struct("<HH")  # offset, length; also slot_count + free_lower
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
assert _HEADER.size == PAGE_HEADER_SIZE and _SLOT.size == SLOT_SIZE
# Header field offsets.
_PAGE_ID, _LSN, _SLOT_COUNT, _FREE_LOWER, _FILE_ID = 2, 6, 14, 16, 20

#: Slot length value marking a deleted record.
TOMBSTONE = 0


class PageFullError(Exception):
    """Not enough contiguous free space for the record plus its slot."""


class PageCorruptError(Exception):
    """Structural invariant violated (bad magic, bad checksum, bad slot)."""


WriteHook = Callable[[int, bytes, bytes], None]


class SlottedPage:
    """A database page in the format of Figure 3.

    Args:
        buf: The page image (mutated in place).
        scheme: IPA N x M scheme; determines the delta-area size.
    """

    def __init__(self, buf: bytearray, scheme: IpaScheme) -> None:
        page_size = len(buf)
        if page_size < PAGE_HEADER_SIZE + PAGE_FOOTER_SIZE + scheme.delta_area_size:
            raise ValueError("buffer too small for layout")
        self._buf = buf
        self.scheme = scheme
        self._hook: Optional[WriteHook] = None
        # Geometry: the buffer never changes length, so these are fixed.
        self.page_size = page_size
        self.footer_start = page_size - PAGE_FOOTER_SIZE
        #: First byte of the delta-record area (== end of the body).
        self.delta_start = self.footer_start - scheme.delta_area_size

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def fresh(
        cls,
        page_id: int,
        page_size: int,
        scheme: IpaScheme,
        file_id: int = 0,
    ) -> "SlottedPage":
        """Format a brand-new page: erased everywhere except the header."""
        buf = bytearray(_ERASED_CHAR) * page_size
        page = cls(buf, scheme)
        # magic, page_id, lsn, slot_count, free_lower, flags, file_id, reserved
        _HEADER.pack_into(
            buf, 0, MAGIC, page_id, 0, 0, PAGE_HEADER_SIZE, 0, file_id, 0
        )
        buf[page.footer_start :] = bytes(PAGE_FOOTER_SIZE)
        return page

    # ------------------------------------------------------------------ #
    # Geometry
    # ------------------------------------------------------------------ #

    @property
    def body_span(self) -> tuple[int, int]:
        """Byte range delta-record pairs may target: tuples + slot array."""
        return PAGE_HEADER_SIZE, self.delta_start

    def _slot_pos(self, slot_no: int) -> int:
        return self.delta_start - SLOT_SIZE * (slot_no + 1)

    @property
    def free_space(self) -> int:
        """Contiguous bytes available for one more record (w/o its slot)."""
        slot_count, free_lower = _SLOT.unpack_from(self._buf, _SLOT_COUNT)
        space = self.delta_start - SLOT_SIZE * (slot_count + 1) - free_lower
        return space if space > 0 else 0

    # ------------------------------------------------------------------ #
    # Header / footer accessors
    # ------------------------------------------------------------------ #

    @property
    def magic(self) -> int:
        return _U16.unpack_from(self._buf, 0)[0]

    @property
    def page_id(self) -> int:
        return _U32.unpack_from(self._buf, _PAGE_ID)[0]

    @property
    def lsn(self) -> int:
        return _U64.unpack_from(self._buf, _LSN)[0]

    def set_lsn(self, lsn: int) -> None:
        """Stamp the page LSN (metadata — shipped via delta_metadata)."""
        self._write(_LSN, _U64.pack(lsn))

    @property
    def slot_count(self) -> int:
        return _U16.unpack_from(self._buf, _SLOT_COUNT)[0]

    @property
    def free_lower(self) -> int:
        return _U16.unpack_from(self._buf, _FREE_LOWER)[0]

    @property
    def file_id(self) -> int:
        return _U16.unpack_from(self._buf, _FILE_ID)[0]

    @property
    def checksum(self) -> int:
        return _U32.unpack_from(self._buf, self.footer_start)[0]

    # ------------------------------------------------------------------ #
    # Record operations
    # ------------------------------------------------------------------ #

    def insert(self, record: bytes) -> int:
        """Append a record; returns its slot number.

        Raises:
            PageFullError: if record + slot do not fit.
            ValueError: for empty records (indistinguishable from a
                tombstone).
        """
        if not record:
            raise ValueError("empty records are not supported")
        size = len(record)
        slot_no, offset = _SLOT.unpack_from(self._buf, _SLOT_COUNT)
        slot_pos = self.delta_start - SLOT_SIZE * (slot_no + 1)
        if size > slot_pos - offset:  # free_space, inlined
            raise PageFullError(f"{size} B record, {self.free_space} B free")
        self._write(offset, record)
        self._write(slot_pos, _SLOT.pack(offset, size))
        # slot_count and free_lower are adjacent: one tracked write.
        self._write(_SLOT_COUNT, _SLOT.pack(slot_no + 1, offset + size))
        return slot_no

    def slot(self, slot_no: int) -> tuple[int, int]:
        """(offset, length) of a slot; length == TOMBSTONE if deleted."""
        buf = self._buf
        if not 0 <= slot_no < _U16.unpack_from(buf, _SLOT_COUNT)[0]:
            raise IndexError(f"slot {slot_no} of {self.slot_count}")
        return _SLOT.unpack_from(buf, self.delta_start - SLOT_SIZE * (slot_no + 1))

    def read(self, slot_no: int) -> bytes:
        """Record bytes of a live slot.

        Raises:
            KeyError: if the slot was deleted.
        """
        buf = self._buf
        if not 0 <= slot_no < _U16.unpack_from(buf, _SLOT_COUNT)[0]:
            raise IndexError(f"slot {slot_no} of {self.slot_count}")
        offset, length = _SLOT.unpack_from(  # slot(), inlined
            buf, self.delta_start - SLOT_SIZE * (slot_no + 1)
        )
        if length == TOMBSTONE:
            raise KeyError(f"slot {slot_no} is deleted")
        return bytes(buf[offset : offset + length])

    def update(self, slot_no: int, field_offset: int, data: bytes) -> None:
        """Overwrite ``data`` at ``field_offset`` within the record.

        This is the paper's "small in-place update": the page stays
        byte-identical except for the changed bytes, which the change
        tracker captures for the delta-record.
        """
        buf = self._buf
        if not 0 <= slot_no < _U16.unpack_from(buf, _SLOT_COUNT)[0]:
            raise IndexError(f"slot {slot_no} of {self.slot_count}")
        offset, length = _SLOT.unpack_from(  # slot(), inlined
            buf, self.delta_start - SLOT_SIZE * (slot_no + 1)
        )
        if length == TOMBSTONE:
            raise KeyError(f"slot {slot_no} is deleted")
        if field_offset < 0 or field_offset + len(data) > length:
            raise ValueError(
                f"update [{field_offset}, {field_offset + len(data)}) exceeds "
                f"record length {length}"
            )
        self._write(offset + field_offset, data)

    def delete(self, slot_no: int) -> None:
        """Tombstone a slot (space is reclaimed only by page rebuild)."""
        offset, length = self.slot(slot_no)
        if length == TOMBSTONE:
            raise KeyError(f"slot {slot_no} already deleted")
        pos = self._slot_pos(slot_no)
        self._write(pos + 2, _U16.pack(TOMBSTONE))

    def compact(self) -> int:
        """Rebuild the tuple area, reclaiming tombstoned records' space.

        Slot numbers are preserved (RIDs stay valid); tombstoned slots
        remain tombstones.  Returns the bytes reclaimed.  This rewrites
        most of the body, so a compacted page always evicts out-of-place
        — which is why heap files only compact when an insert would
        otherwise fail.
        """
        live: list[tuple[int, bytes]] = []
        for slot_no in range(self.slot_count):
            _offset, length = self.slot(slot_no)
            if length != TOMBSTONE:
                live.append((slot_no, self.read(slot_no)))
        old_free_lower = self.free_lower
        cursor = PAGE_HEADER_SIZE
        for slot_no, record in live:
            self._write(cursor, record)
            self._write(self._slot_pos(slot_no), _SLOT.pack(cursor, len(record)))
            cursor += len(record)
        # Erase the tail of the tuple area so it stays Flash-appendable.
        if cursor < old_free_lower:
            self._write(cursor, _ERASED_CHAR * (old_free_lower - cursor))
        self._write(_FREE_LOWER, _U16.pack(cursor))
        return old_free_lower - cursor

    def has_tombstones(self) -> bool:
        """True if any slot was deleted (compaction could reclaim space)."""
        return any(
            self.slot(s)[1] == TOMBSTONE for s in range(self.slot_count)
        )

    def live_records(self) -> list[tuple[int, bytes]]:
        """(slot_no, bytes) of every non-deleted record."""
        buf = self._buf
        out = []
        for slot_no in range(self.slot_count):
            offset, length = self.slot(slot_no)
            if length != TOMBSTONE:
                out.append((slot_no, bytes(buf[offset : offset + length])))
        return out

    # ------------------------------------------------------------------ #
    # Delta area
    # ------------------------------------------------------------------ #

    def delta_area(self) -> bytes:
        """The raw delta-record area bytes."""
        return bytes(self._buf[self.delta_start : self.footer_start])

    def reset_delta_area(self) -> None:
        """Return the delta area to the erased state (out-of-place path).

        Bypasses the write hook: resetting the area is part of composing
        the out-image, not a tracked page modification.
        """
        self._buf[self.delta_start : self.footer_start] = (
            _ERASED_CHAR * self.scheme.delta_area_size
        )

    # ------------------------------------------------------------------ #
    # Integrity
    # ------------------------------------------------------------------ #

    def compute_checksum(self) -> int:
        """CRC32 over header + body (everything before the delta area)."""
        # No copy — and the views are released at once: a view left
        # exported would make a later resizing store on the buffer fail.
        with memoryview(self._buf) as whole, whole[: self.delta_start] as covered:
            return zlib.crc32(covered)

    def store_checksum(self) -> None:
        """Write the current checksum into the footer."""
        self._write(self.footer_start, _U32.pack(self.compute_checksum()))

    def verify_checksum(self) -> bool:
        """True iff the stored footer checksum matches the content."""
        return self.checksum == self.compute_checksum()

    def validate(self) -> None:
        """Cheap structural validation.

        Raises:
            PageCorruptError: bad magic or slots pointing outside the body.
        """
        if self.magic != MAGIC:
            raise PageCorruptError(f"bad magic 0x{self.magic:04x}")
        body_start, body_end = self.body_span
        for slot_no in range(self.slot_count):
            offset, length = self.slot(slot_no)
            if length == TOMBSTONE:
                continue
            if offset < body_start or offset + length > body_end:
                raise PageCorruptError(
                    f"slot {slot_no} [{offset}, {offset + length}) outside body"
                )

    # ------------------------------------------------------------------ #
    # Raw access
    # ------------------------------------------------------------------ #

    def to_bytes(self) -> bytes:
        """A copy of the full page image."""
        return bytes(self._buf)

    def metadata(self) -> tuple[bytes, bytes]:
        """Copies of (header, footer): a delta-record's delta_metadata."""
        buf = self._buf
        return bytes(buf[:PAGE_HEADER_SIZE]), bytes(buf[self.footer_start :])

    def set_write_hook(self, hook: Optional[WriteHook]) -> None:
        """Attach/detach the change tracker's write observer."""
        self._hook = hook

    def _write(self, offset: int, data: bytes) -> None:
        """All mutations go through here so the tracker sees every byte."""
        buf = self._buf
        end = offset + len(data)
        if self._hook is not None:
            self._hook(offset, bytes(buf[offset:end]), data)
        buf[offset:end] = data
