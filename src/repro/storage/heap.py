"""Heap files: unordered record storage over slotted pages."""

from __future__ import annotations

from typing import Iterator, NamedTuple

from repro.core.config import PAGE_HEADER_SIZE
from repro.storage.layout import SLOT_SIZE, PageFullError
from repro.storage.manager import StorageManager


class RID(NamedTuple):
    """Record identifier: logical page + slot."""

    lba: int
    slot: int


class FileFullError(Exception):
    """The heap file's LBA range is exhausted."""


class HeapFile:
    """Fixed-range heap file with an append-style insertion cursor.

    Space freed by deletes is reclaimed only when the cursor page is full
    and an earlier page has room (cheap first-fit fallback) — good enough
    for OLTP tables whose record count is stable or growing.

    Args:
        manager: The storage manager.
        file_id: Numeric id stamped into page headers.
        base_lba: First LBA of the file's range.
        max_pages: Number of LBAs reserved for the file.
    """

    def __init__(
        self,
        manager: StorageManager,
        file_id: int,
        base_lba: int,
        max_pages: int,
    ) -> None:
        if max_pages < 1:
            raise ValueError("max_pages must be >= 1")
        self.manager = manager
        self.file_id = file_id
        self.base_lba = base_lba
        self.max_pages = max_pages
        self._allocated = 0  # pages formatted so far
        self._cursor = 0  # page index we are currently filling
        self.record_count = 0

    @property
    def allocated_pages(self) -> int:
        """Pages formatted so far."""
        return self._allocated

    def _lba(self, page_index: int) -> int:
        return self.base_lba + page_index

    def _ensure_page(self, page_index: int) -> int:
        """Format the page if it does not exist yet; returns its LBA."""
        if page_index >= self.max_pages:
            raise FileFullError(
                f"file {self.file_id}: all {self.max_pages} pages allocated"
            )
        lba = self._lba(page_index)
        if page_index >= self._allocated:
            frame = self.manager.format_page(lba, file_id=self.file_id)
            self.manager.unpin(frame)
            self._allocated = page_index + 1
        return lba

    def insert(self, record: bytes) -> RID:
        """Insert a record, allocating pages as needed.

        Raises:
            FileFullError: no page in the range can hold the record.  A
                record longer than an empty page holds is refused once
                the cursor page refused it, before another page is
                formatted or probed.
        """
        manager = self.manager
        page_index = self._cursor
        while True:
            lba = self._ensure_page(page_index)
            frame = manager.fetch(lba)
            frame.tracker.begin_op()
            slot = None
            try:
                slot = frame.page.insert(record)
            except PageFullError:
                pass
            finally:
                manager.end_update(frame, slot is not None)
            if slot is not None:
                self._cursor = page_index
                self.record_count += 1
                return RID(lba, slot)
            # Bytes past what an empty page holds mean no page can take the
            # record: refuse it before formatting and probing every page
            # left in the file.  (A slice, not len(): this runs at every
            # page fill, and the call count of the insert path is gated.)
            if record[frame.page.delta_start - PAGE_HEADER_SIZE - SLOT_SIZE :]:
                raise self._no_room(record)
            page_index += 1
            if page_index >= self.max_pages:
                return self._insert_first_fit(record)

    def _insert_first_fit(self, record: bytes) -> RID:
        """First-fit over all pages, compacting tombstoned pages to
        reclaim deleted records' space (the cursor ran off the file)."""
        for earlier in range(0, self._allocated):
            lba = self._lba(earlier)
            try:
                with self.manager.update(lba) as page:
                    if (
                        page.free_space < len(record)
                        and page.has_tombstones()
                    ):
                        page.compact()
                    slot = page.insert(record)
                self.record_count += 1
                return RID(lba, slot)
            except PageFullError:
                continue
        raise self._no_room(record)

    def _no_room(self, record: bytes) -> FileFullError:
        return FileFullError(
            f"file {self.file_id}: no page can hold {len(record)} bytes"
        )

    def read(self, rid: RID) -> bytes:
        """Read a record by RID."""
        frame = self.manager.fetch(rid.lba)
        try:
            return frame.page.read(rid.slot)
        finally:
            frame.pin_count -= 1  # fetch()'s pin, paired right here

    def update(self, rid: RID, field_offset: int, data: bytes) -> None:
        """In-place update of ``data`` at ``field_offset`` in the record.

        One call == one update operation == one candidate delta-record.
        """
        manager = self.manager
        frame = manager.fetch(rid.lba)
        frame.tracker.begin_op()
        completed = False
        try:
            frame.page.update(rid.slot, field_offset, data)
            completed = True
        finally:
            manager.end_update(frame, completed)

    def update_multi(self, rid: RID, writes: list[tuple[int, bytes]]) -> None:
        """Several field writes of ONE record as ONE update operation.

        A tuple-level update (e.g. TPC-C touching quantity + ytd +
        order_cnt of one stock row) is a single logical update, so it
        becomes a single candidate delta-record — its changed bytes are
        pooled against M rather than consuming one record per field.
        """
        with self.manager.update(rid.lba) as page:
            for field_offset, data in writes:
                page.update(rid.slot, field_offset, data)

    def delete(self, rid: RID) -> None:
        """Tombstone a record."""
        with self.manager.update(rid.lba) as page:
            page.delete(rid.slot)
        self.record_count -= 1

    def scan(self) -> Iterator[tuple[RID, bytes]]:
        """Yield every live record in page order."""
        for page_index in range(self._allocated):
            lba = self._lba(page_index)
            with self.manager.page(lba) as page:
                for slot, record in page.live_records():
                    yield RID(lba, slot), record
