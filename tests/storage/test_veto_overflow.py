"""One open transaction dirties the whole pool: the veto-overflow path.

The no-steal veto (`BufferPool.no_steal`) protects uncommitted
pages from reaching the data device.  When an open transaction has
dirtied *every* evictable frame the pool used to have only bad options:
raise BufferPoolFullError, or silently steal an undurable page.  The
`veto_overflow` hook gives it a third: the manager forces a WAL flush
(early group commit), the vetoes evaporate, and the eviction proceeds
legally.  These tests pin down that contract and its corners.
"""

import pytest

from repro.core.config import IPA_DISABLED
from repro.engine.wal import WriteAheadLog
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.ftl.page_mapping import PageMappingFtl
from repro.storage.buffer import BufferPoolFullError
from repro.storage.manager import StorageManager, TraditionalPolicy

DATA_GEO = FlashGeometry(page_size=1024, oob_size=128, pages_per_block=8, blocks=32)
WAL_GEO = FlashGeometry(page_size=1024, oob_size=16, pages_per_block=8, blocks=16)

CAPACITY = 4


def make_manager(with_wal=True):
    device = PageMappingFtl(FlashChip(DATA_GEO), over_provisioning=0.2)
    manager = StorageManager(
        device, IPA_DISABLED, TraditionalPolicy(), buffer_capacity=CAPACITY
    )
    if with_wal:
        manager.wal = WriteAheadLog(FlashChip(WAL_GEO, clock=manager.clock))
    return manager


def seed_pages(manager, n=CAPACITY):
    """Create n pages with one record each and commit them."""
    slots = {}
    for lba in range(n):
        frame = manager.format_page(lba)
        with manager.update(lba) as page:
            slots[lba] = page.insert(b"seed-record-%02d!" % lba)
        manager.unpin(frame)
    manager.commit_wal()
    manager.flush_all()
    return slots


def dirty_whole_pool(manager, slots):
    """One open transaction touches every resident frame (no commit)."""
    for lba, slot in slots.items():
        with manager.update(lba) as page:
            page.update(slot, 0, b"MOD")
    assert all(f.lba in manager.pool.no_steal for f in manager.pool.frames())


class TestVetoOverflow:
    def test_overflow_forces_wal_flush_instead_of_raising(self):
        manager = make_manager()
        slots = seed_pages(manager)
        durable_before = len(manager.wal.durable_records())
        dirty_whole_pool(manager, slots)

        # Every evictable frame is vetoed; admitting a new page must
        # force a WAL flush rather than raise or steal.
        frame = manager.format_page(CAPACITY)
        manager.unpin(frame)

        assert manager.stats.forced_wal_flushes == 1
        # The open transaction's records became durable (early commit).
        assert len(manager.wal.durable_records()) > durable_before
        # Vetoes are gone: the flush fires after format_page logged the
        # new page, so that record rode along and the set is empty.
        assert manager.pool.no_steal == set()

    def test_overflow_eviction_is_legal_not_a_steal(self):
        manager = make_manager()
        slots = seed_pages(manager)
        dirty_whole_pool(manager, slots)
        evicted_before = manager.pool.stats.evictions

        frame = manager.format_page(CAPACITY)
        manager.unpin(frame)

        assert manager.pool.stats.evictions == evicted_before + 1
        # The victim was flushed *after* its records were durable, so a
        # crash right now loses nothing: redo covers the whole pool.
        manager.pool.drop_all()
        recovered = manager.wal.durable_records()
        assert any(getattr(r, "lba", None) == 0 for r in recovered)

    def test_modified_data_survives_overflow_and_refetch(self):
        manager = make_manager()
        slots = seed_pages(manager)
        dirty_whole_pool(manager, slots)
        frame = manager.format_page(CAPACITY)
        manager.unpin(frame)
        manager.commit_wal()
        manager.flush_all()
        manager.pool.drop_all()
        for lba, slot in slots.items():
            with manager.page(lba) as page:
                assert page.read(slot)[:3] == b"MOD"

    def test_all_pinned_still_raises(self):
        manager = make_manager()
        seed_pages(manager)
        pinned = [manager.fetch(lba) for lba in range(CAPACITY)]
        with pytest.raises(BufferPoolFullError):
            manager.format_page(CAPACITY)
        for frame in pinned:
            manager.unpin(frame)

    def test_without_wal_hook_declines_and_pool_steals(self):
        # No WAL: the hook returns False; with no vetoes in play either
        # (the locked set only fills when a WAL is attached), a plain
        # eviction happens — the legacy behavior is untouched.
        manager = make_manager(with_wal=False)
        slots = seed_pages(manager)
        dirty_whole_pool_possible = manager._veto_overflow()
        assert dirty_whole_pool_possible is False
        for lba, slot in slots.items():
            with manager.update(lba) as page:
                page.update(slot, 0, b"MOD")
        frame = manager.format_page(CAPACITY)
        manager.unpin(frame)
        assert manager.stats.forced_wal_flushes == 0

    def test_hook_returning_false_falls_back_to_steal(self):
        manager = make_manager()
        slots = seed_pages(manager)
        dirty_whole_pool(manager, slots)
        manager.pool.veto_overflow = lambda: False  # simulate ineffective hook
        frame = manager.format_page(CAPACITY)
        manager.unpin(frame)
        # Steal happened: an uncommitted page reached the device while
        # its transaction is still open (the pre-hook legacy behavior).
        assert manager.stats.forced_wal_flushes == 0
        assert manager.pool.stats.evictions >= 1
