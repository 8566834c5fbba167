"""Buffer pool: frames, LRU replacement, pin/unpin, change tracking home.

The pool deliberately keeps the paper's separation of duties: it holds
only *up-to-date* logical pages ("the traditional behavior of the buffer
manager is not affected by IPA, since the buffer contains always the
up-to-date version of the page"); everything Flash-specific — applying
delta-records on fetch, choosing the write strategy on eviction — lives
in the storage manager's fetch/flush hooks.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.tracker import ChangeTracker
from repro.flash.stats import Counters
from repro.obs.trace import NULL_TRACER
from repro.storage.layout import SlottedPage


class BufferPoolFullError(Exception):
    """Every frame is pinned; nothing can be evicted."""


class Frame:
    """One buffer frame: the working page plus its Flash bookkeeping."""

    __slots__ = (
        "lba",
        "page",
        "tracker",
        "pin_count",
        "dirty",
        "flash_image",
        "flash_delta_count",
    )

    def __init__(
        self,
        lba: int,
        page: SlottedPage,
        tracker: ChangeTracker,
        flash_image: Optional[bytes],
        flash_delta_count: int,
    ) -> None:
        self.lba = lba
        self.page = page
        self.tracker = tracker
        self.pin_count = 0
        self.dirty = flash_image is None  # fresh pages must reach Flash
        #: Exact page image as currently stored on Flash (None if the page
        #: has never been written).  Scenario 2 composes its append image
        #: from this; it is refreshed on every flush.
        self.flash_image = flash_image
        #: Number of delta-records in the Flash copy (counts against N).
        self.flash_delta_count = flash_delta_count

    def pin(self) -> None:
        self.pin_count += 1

    def unpin(self) -> None:
        if self.pin_count <= 0:
            raise RuntimeError(f"unpin of unpinned frame (lba {self.lba})")
        self.pin_count -= 1

    def mark_dirty(self) -> None:
        self.dirty = True


@dataclass
class BufferStats(Counters):
    """Pool-level counters (several feed the paper's analyses)."""

    fetches: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    clean_evictions: int = 0
    dirty_evictions: int = 0
    #: Net body bytes modified per dirty eviction — the histogram behind
    #: the paper's ">70 % of dirty pages modify <100 B" claim (E7).
    dirty_eviction_net_bytes: list = field(default_factory=list)


class BufferPool:
    """Fixed-capacity pool with LRU replacement.

    Args:
        capacity: Number of frames.
        flush: Callback writing a dirty frame to the device (the storage
            manager's policy dispatch); returns the frame's net changed
            body bytes, which it read before the write reset them.
    """

    #: Observability: replaced per-instance by ``StorageManager.attach``.
    tracer = NULL_TRACER

    #: Why the pool is flushing right now: ``"evict"`` (replacement) or
    #: ``"checkpoint"`` (:meth:`flush_all`).  Read by the storage
    #: manager's ``host_write`` span so flush pressure can be split by
    #: trigger in trace post-processing.
    flush_reason = "evict"

    def __init__(self, capacity: int, flush: Callable[[Frame], int]) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._flush = flush
        self._frames: "OrderedDict[int, Frame]" = OrderedDict()
        self.stats = BufferStats()
        #: Soft no-steal set (filled by the storage manager when a WAL is
        #: attached, cleared when the transaction is durable): LBAs whose
        #: frames *prefer* not to be evicted — pages dirtied by a
        #: transaction that has not committed yet, so a crash cannot
        #: leave uncommitted bytes on the data device that the redo-only
        #: log knows nothing about.  Vetoed frames are passed over while
        #: any other unpinned frame exists.
        self.no_steal: set[int] = set()
        #: Escape hatch for the all-evictable-frames-vetoed corner: a
        #: callback that releases vetoes (the storage manager forces a
        #: WAL flush, making the open transaction's records durable) and
        #: returns True when it freed anything.  The pool then re-picks —
        #: the no-longer-vetoed victim can now be evicted *legally*.
        #: Without the hook (or when it returns False) the pool steals a
        #: vetoed frame as before (redo-only logging tolerates it for
        #: crash-free runs, and tiny pools must not deadlock).
        self.veto_overflow: Optional[Callable[[], bool]] = None

    def __len__(self) -> int:
        return len(self._frames)

    def __contains__(self, lba: int) -> bool:
        return lba in self._frames

    def get(self, lba: int) -> Optional[Frame]:
        """Look up a resident frame (makes it the most recently used)."""
        frame = self._frames.get(lba)
        if frame is not None:
            self._frames.move_to_end(lba)
        return frame

    def insert(self, frame: Frame) -> None:
        """Admit a frame, evicting the least recently used if needed.

        Raises:
            BufferPoolFullError: every resident frame is pinned.
            ValueError: the LBA is already resident.
        """
        frames = self._frames
        lba = frame.lba
        if lba in frames:
            raise ValueError(f"lba {lba} already resident")
        if len(frames) >= self.capacity:
            victim, fallback = self._scan_victim()
            if victim is None:
                victim = self._overflow_victim(fallback)
            stats = self.stats
            if victim.dirty:
                # Flush first, unlink after: a flush that raises (device
                # full, WAL full, injected fault) must leave the dirty
                # frame resident or the next fetch would re-read the
                # stale Flash copy.
                tr = self.tracer
                if not tr.enabled:
                    net_bytes = self._flush(victim)
                else:
                    with tr.span("evict", lba=victim.lba, dirty=True):
                        net_bytes = self._flush(victim)
                stats.dirty_evictions += 1
                stats.dirty_eviction_net_bytes.append(net_bytes)
            else:
                stats.clean_evictions += 1
            del frames[victim.lba]
            stats.evictions += 1
        frames[lba] = frame

    def _scan_victim(self) -> tuple[Optional[Frame], Optional[Frame]]:
        """(victim, vetoed-fallback): the least recently used unpinned
        frame, and the least recently used vetoed one passed over."""
        no_steal = self.no_steal
        fallback = None
        for frame in self._frames.values():
            if frame.pin_count == 0:
                if frame.lba not in no_steal:
                    return frame, fallback
                if fallback is None:
                    fallback = frame
        return None, fallback

    def _overflow_victim(self, fallback: Optional[Frame]) -> Frame:
        """The victim when :meth:`_scan_victim` found no legal one."""
        if fallback is None:
            raise BufferPoolFullError("all frames pinned")
        # Every evictable frame is vetoed (an open transaction has
        # dirtied the whole pool).  Ask the manager to release the
        # vetoes — it forces a WAL flush so the open transaction's
        # records are durable — then re-scan: the same frames are now
        # legal victims and nothing gets stolen undurable.
        if self.veto_overflow is not None and self.veto_overflow():
            victim, fallback = self._scan_victim()
            if victim is not None:
                return victim
            if fallback is None:
                raise BufferPoolFullError("all frames pinned")
        return fallback  # hook absent or ineffective: steal

    def flush_all(self) -> None:
        """Write every dirty frame (checkpoint / shutdown)."""
        self.flush_reason = "checkpoint"
        try:
            for frame in list(self._frames.values()):
                if frame.dirty:
                    self._flush(frame)
        finally:
            self.flush_reason = "evict"

    def drop_all(self) -> None:
        """Discard every frame without flushing (crash simulation)."""
        self._frames.clear()

    def frames(self) -> list[Frame]:
        """Snapshot of resident frames in LRU order (oldest first)."""
        return list(self._frames.values())
