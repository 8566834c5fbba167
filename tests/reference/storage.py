"""Spec models of ``repro.storage``'s page access and heap file.

An update is: fetch the page, mutate its bytes, mark it dirty, log one
record.  A heap insert walks from the cursor page onward (formatting
each page on first use) and, past the last page, tries every page
first-fit, compacting one whose tombstones hide the room it needs.
"""

from contextlib import contextmanager

from repro.core.config import PAGE_HEADER_SIZE
from repro.storage.buffer import Frame
from repro.storage.heap import RID, FileFullError
from repro.storage.layout import SLOT_SIZE, PageFullError, SlottedPage
from tests.reference.core import RefChangeTracker, ref_reconstruct


def ref_fetch(manager, lba):
    """The pinned frame of ``lba``; a miss reads and reconstructs it."""
    pool = manager.pool
    pool.stats.fetches += 1
    frame = pool.get(lba)
    if frame is not None:
        pool.stats.hits += 1
        manager.clock.advance(manager.host_costs.per_buffer_hit_us, "host")
    else:
        pool.stats.misses += 1
        image = manager.device.read_page(lba)
        buf, count = ref_reconstruct(image, manager.scheme)
        page = SlottedPage(buf, manager.scheme)
        tracker = RefChangeTracker(
            manager.scheme, count, PAGE_HEADER_SIZE, page.delta_start
        )
        page.set_write_hook(tracker.on_write)
        frame = Frame(lba, page, tracker, flash_image=image, flash_delta_count=count)
        pool.insert(frame)
    frame.pin()
    return frame


@contextmanager
def ref_update(manager, lba):
    """One update operation; only a completed one takes an LSN."""
    frame = ref_fetch(manager, lba)
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


class RefHeapFile:
    def __init__(self, manager, file_id, base_lba, max_pages):
        self.manager = manager
        self.file_id = file_id
        self.base_lba = base_lba
        self.max_pages = max_pages
        self.allocated = 0
        self.cursor = 0
        self.record_count = 0

    def insert(self, record):
        index = self.cursor
        while index < self.max_pages:
            lba = self.base_lba + index
            if index == self.allocated:
                self.manager.unpin(self.manager.format_page(lba, self.file_id))
                self.allocated += 1
            try:
                with ref_update(self.manager, lba) as page:
                    slot = page.insert(record)
            except PageFullError:
                if len(record) > page.delta_start - PAGE_HEADER_SIZE - SLOT_SIZE:
                    break  # not even an empty page holds it
                index += 1
                continue
            self.cursor = index
            self.record_count += 1
            return RID(lba, slot)
        else:
            for index in range(self.allocated):
                lba = self.base_lba + index
                try:
                    with ref_update(self.manager, lba) as page:
                        if page.free_space < len(record) and page.has_tombstones():
                            page.compact()
                        slot = page.insert(record)
                except PageFullError:
                    continue
                self.record_count += 1
                return RID(lba, slot)
        raise FileFullError(
            f"file {self.file_id}: no page can hold {len(record)} bytes"
        )

    def read(self, rid):
        frame = ref_fetch(self.manager, rid.lba)
        try:
            return frame.page.read(rid.slot)
        finally:
            frame.unpin()

    def update(self, rid, field_offset, data):
        self.update_multi(rid, [(field_offset, data)])

    def update_multi(self, rid, writes):
        with ref_update(self.manager, rid.lba) as page:
            for field_offset, data in writes:
                page.update(rid.slot, field_offset, data)

    def delete(self, rid):
        with ref_update(self.manager, rid.lba) as page:
            page.delete(rid.slot)
        self.record_count -= 1
