"""Buffer-pool victim selection: the replacement cases that once ran
under a second-chance sweep, kept against the pool's one (LRU) order.
A "referenced" frame here is one touched by ``get``, which moves it to
the most recently used end."""

import pytest

from repro.core.config import SCHEME_2X4
from repro.core.tracker import ChangeTracker
from repro.storage.buffer import BufferPool, BufferPoolFullError, Frame
from repro.storage.layout import SlottedPage

PAGE_SIZE = 512


def make_frame(lba):
    page = SlottedPage.fresh(lba, PAGE_SIZE, SCHEME_2X4)
    tracker = ChangeTracker(SCHEME_2X4, 0, 24, page.delta_start)
    return Frame(lba, page, tracker, flash_image=page.to_bytes(),
                 flash_delta_count=0)


class TestClockPolicy:
    def test_pinned_skipped(self):
        pool = BufferPool(2, flush=lambda f: None)
        f1 = make_frame(1)
        pool.insert(f1)
        f1.pin()
        pool.insert(make_frame(2))
        pool.insert(make_frame(3))
        assert 1 in pool  # pinned survives though least recently used
        assert 2 not in pool
        assert 3 in pool

    def test_all_pinned_raises(self):
        pool = BufferPool(1, flush=lambda f: None)
        f1 = make_frame(1)
        pool.insert(f1)
        f1.pin()
        with pytest.raises(BufferPoolFullError):
            pool.insert(make_frame(2))
        assert 1 in pool
        assert 2 not in pool

    def test_dirty_eviction_flushes(self):
        flushed = []
        pool = BufferPool(1, flush=flushed.append)
        frame = make_frame(1)
        frame.mark_dirty()
        pool.insert(frame)
        pool.insert(make_frame(2))
        assert [f.lba for f in flushed] == [1]
        assert pool.stats.dirty_evictions == 1


class TestScanVictimDirect:
    """Direct ``_scan_victim`` coverage of pinning and recency."""

    def make_pool(self, lbas, referenced=()):
        pool = BufferPool(len(lbas), flush=lambda f: None)
        for lba in lbas:
            pool.insert(make_frame(lba))
        for lba in referenced:
            pool.get(lba)  # moves the frame to the most recently used end
        return pool

    def test_sweep_returns_first_unreferenced(self):
        pool = self.make_pool([1, 2, 3], referenced=[1])
        victim, fallback = pool._scan_victim()
        assert victim.lba == 2
        assert fallback is None

    def test_pinned_frames_skipped(self):
        pool = self.make_pool([1, 2])
        pool.get(1).pin()
        victim, fallback = pool._scan_victim()
        assert victim.lba == 2
        assert fallback is None

    def test_all_pinned_returns_nothing(self):
        pool = self.make_pool([1, 2])
        pool.get(1).pin()
        pool.get(2).pin()
        victim, fallback = pool._scan_victim()
        assert victim is None
        assert fallback is None
