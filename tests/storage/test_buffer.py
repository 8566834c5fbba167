"""Buffer pool: LRU, pinning, eviction accounting."""

import pytest

from repro.core.config import SCHEME_2X4
from repro.core.tracker import ChangeTracker
from repro.storage.buffer import BufferPool, BufferPoolFullError, Frame
from repro.storage.layout import SlottedPage

PAGE_SIZE = 512


def make_frame(lba, dirty=False):
    page = SlottedPage.fresh(lba, PAGE_SIZE, SCHEME_2X4)
    tracker = ChangeTracker(SCHEME_2X4, 0, 24, page.delta_start)
    frame = Frame(lba, page, tracker, flash_image=page.to_bytes(), flash_delta_count=0)
    if dirty:
        frame.mark_dirty()
    return frame


class TestPoolBasics:
    def test_insert_and_get(self):
        pool = BufferPool(4, flush=lambda f: None)
        frame = make_frame(1)
        pool.insert(frame)
        assert pool.get(1) is frame
        assert 1 in pool
        assert len(pool) == 1

    def test_get_missing_returns_none(self):
        pool = BufferPool(4, flush=lambda f: None)
        assert pool.get(99) is None

    def test_duplicate_insert_rejected(self):
        pool = BufferPool(4, flush=lambda f: None)
        pool.insert(make_frame(1))
        with pytest.raises(ValueError):
            pool.insert(make_frame(1))

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            BufferPool(0, flush=lambda f: None)


class TestEviction:
    def test_lru_order(self):
        pool = BufferPool(2, flush=lambda f: None)
        pool.insert(make_frame(1))
        pool.insert(make_frame(2))
        pool.get(1)  # refresh 1; 2 becomes LRU
        pool.insert(make_frame(3))
        assert 1 in pool
        assert 2 not in pool
        assert 3 in pool

    def test_dirty_eviction_flushes(self):
        flushed = []
        pool = BufferPool(1, flush=flushed.append)
        pool.insert(make_frame(1, dirty=True))
        pool.insert(make_frame(2))
        assert [f.lba for f in flushed] == [1]
        assert pool.stats.dirty_evictions == 1

    def test_clean_eviction_skips_flush(self):
        flushed = []
        pool = BufferPool(1, flush=flushed.append)
        pool.insert(make_frame(1))
        pool.insert(make_frame(2))
        assert flushed == []
        assert pool.stats.clean_evictions == 1

    def test_pinned_frames_survive(self):
        pool = BufferPool(2, flush=lambda f: None)
        f1 = make_frame(1)
        pool.insert(f1)
        f1.pin()
        pool.insert(make_frame(2))
        pool.insert(make_frame(3))
        assert 1 in pool
        assert 2 not in pool

    def test_all_pinned_raises(self):
        pool = BufferPool(1, flush=lambda f: None)
        f1 = make_frame(1)
        pool.insert(f1)
        f1.pin()
        with pytest.raises(BufferPoolFullError):
            pool.insert(make_frame(2))

    def test_net_bytes_recorded_on_dirty_eviction(self):
        # The flush callback reads the net bytes before its write resets
        # the tracker (StorageManager._flush does); the pool records them.
        pool = BufferPool(1, flush=lambda f: f.tracker.net_changed_bytes)
        frame = make_frame(1, dirty=True)
        frame.tracker.begin_op()
        frame.tracker.on_write(100, b"\x00\x00\x00", b"\x01\x02\x03")
        frame.tracker.end_op()
        pool.insert(frame)
        pool.insert(make_frame(2))
        assert pool.stats.dirty_eviction_net_bytes == [3]

    def test_a_raising_flush_keeps_the_dirty_frame(self):
        """Device full, WAL full, an injected fault: the victim must stay
        resident and dirty (dropping it would make the next fetch re-read
        the stale Flash copy), nothing is counted, and a retry evicts it."""
        attempts = []

        def flush(frame):
            attempts.append(frame.lba)
            if len(attempts) == 1:
                raise OSError("device full")
            frame.dirty = False
            return frame.tracker.net_changed_bytes

        pool = BufferPool(1, flush=flush)
        victim = make_frame(1, dirty=True)
        pool.insert(victim)
        with pytest.raises(OSError):
            pool.insert(make_frame(2))
        assert pool.get(1) is victim and victim.dirty and 2 not in pool
        assert pool.stats.evictions == pool.stats.dirty_evictions == 0
        assert pool.stats.dirty_eviction_net_bytes == []
        pool.insert(make_frame(2))  # the retry flushes and evicts it
        assert attempts == [1, 1] and 1 not in pool and 2 in pool
        assert pool.stats.evictions == pool.stats.dirty_evictions == 1
        assert pool.stats.dirty_eviction_net_bytes == [0]


class TestVictimScan:
    """``_scan_victim`` and ``insert`` coverage of the no-steal veto and
    the veto-overflow hook, in LRU order."""

    def make_pool(self, lbas):
        pool = BufferPool(len(lbas), flush=lambda f: None)
        for lba in lbas:
            pool.insert(make_frame(lba))
        return pool

    def test_vetoed_frame_becomes_fallback(self):
        pool = self.make_pool([1, 2])
        pool.no_steal.add(1)
        victim, fallback = pool._scan_victim()
        assert victim.lba == 2
        assert fallback.lba == 1

    def test_all_vetoed_returns_only_fallback(self):
        pool = self.make_pool([1, 2])
        pool.no_steal.update({1, 2})
        victim, fallback = pool._scan_victim()
        assert victim is None
        assert fallback.lba == 1  # the least recently used vetoed frame

    def test_veto_overflow_rescan_finds_legal_victim(self):
        # All frames vetoed; the overflow hook (a stand-in for the
        # manager's forced WAL flush) releases frame 2's veto, and
        # the re-scan evicts it rather than stealing frame 1.
        pool = self.make_pool([1, 2])
        pool.no_steal.update({1, 2})
        calls = []

        def release():
            calls.append(True)
            pool.no_steal.discard(2)
            return True

        pool.veto_overflow = release
        pool.insert(make_frame(3))
        assert calls == [True]
        assert 1 in pool and 2 not in pool

    def test_ineffective_overflow_steals_fallback(self):
        # Hook runs but releases nothing: the fallback is stolen rather
        # than deadlocking (redo-only logging tolerates the steal).
        pool = self.make_pool([1, 2])
        pool.no_steal.update({1, 2})
        calls = []
        pool.veto_overflow = lambda: calls.append(True) or True
        pool.insert(make_frame(3))
        assert calls == [True]
        assert 1 not in pool and 2 in pool

    def test_absent_overflow_hook_steals_fallback(self):
        pool = self.make_pool([1, 2])
        pool.no_steal.update({1, 2})
        assert pool.veto_overflow is None
        pool.insert(make_frame(3))
        assert 1 not in pool and 2 in pool


class TestFlushAll:
    def test_flush_all_only_dirty(self):
        flushed = []
        pool = BufferPool(4, flush=flushed.append)
        pool.insert(make_frame(1, dirty=True))
        pool.insert(make_frame(2))
        pool.insert(make_frame(3, dirty=True))
        pool.flush_all()
        assert sorted(f.lba for f in flushed) == [1, 3]


class TestFrame:
    def test_pin_unpin(self):
        frame = make_frame(1)
        frame.pin()
        frame.pin()
        assert frame.pin_count == 2
        frame.unpin()
        frame.unpin()
        with pytest.raises(RuntimeError):
            frame.unpin()

    def test_fresh_page_starts_dirty(self):
        page = SlottedPage.fresh(9, PAGE_SIZE, SCHEME_2X4)
        tracker = ChangeTracker(SCHEME_2X4, 0, 24, page.delta_start)
        frame = Frame(9, page, tracker, flash_image=None, flash_delta_count=0)
        assert frame.dirty
