"""Storage manager: fetch / modify / evict, and the device write policies.

This is where the paper's three write strategies live:

* :class:`TraditionalPolicy` — Demo-Scenario 1: every dirty eviction
  writes the whole up-to-date page out-of-place ([0x0] in Table 1).
* :class:`IpaBlockDevicePolicy` — Demo-Scenario 2: the DBMS composes
  ``original body + delta-record area`` images and writes whole pages
  over a block interface; an IPA-aware FTL detects the append.
* :class:`IpaNativePolicy` — Demo-Scenario 3: the DBMS ships only the
  delta-records via ``write_delta`` (NoFTL).

The fetch path is shared: read the page image, apply its delta-records
(:func:`repro.core.reconstruct.reconstruct`), verify the checksum, attach
a fresh :class:`~repro.core.tracker.ChangeTracker`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro.core.config import (
    MAX_PAGE_SIZE,
    PAGE_FOOTER_SIZE,
    PAGE_HEADER_SIZE,
    IpaScheme,
)
from repro.core.delta import DeltaFormatError
from repro.core.reconstruct import ReconstructionError, reconstruct
from repro.core.tracker import ChangeTracker
from repro.flash.latency import HostCostModel
from repro.flash.stats import Counters
from repro.ftl.interface import FlashBackend
from repro.obs.ledger import NULL_LEDGER, LifetimeTracker, WriteLedger
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.storage.buffer import BufferPool, Frame
from repro.storage.layout import PageCorruptError, PageFullError, SlottedPage


@dataclass
class ManagerStats(Counters):
    """Eviction-path counters (DBMS side of Table 1)."""

    ipa_flushes: int = 0
    oop_flushes: int = 0
    delta_records_written: int = 0
    delta_bytes_written: int = 0
    full_page_bytes_written: int = 0
    ipa_fallbacks: int = 0  # device refused an append mid-flush
    update_ops: int = 0
    net_bytes_updated: int = 0
    #: WAL flushes forced because an open transaction had dirtied every
    #: evictable frame (the pool's veto_overflow hook fired).
    forced_wal_flushes: int = 0
    #: Pages whose checksum only verified after dropping a torn trailing
    #: delta-record (post-crash fetches; see _load_page).
    torn_repairs: int = 0
    #: Per-file-id changed-byte sizes of update operations — raw material
    #: for the region advisor (repro.analysis.advisor).
    per_file_op_sizes: dict = field(default_factory=dict)

    @property
    def ipa_share(self) -> float:
        """Share of dirty flushes written in place (0 when none flushed)."""
        flushes = self.ipa_flushes + self.oop_flushes
        return self.ipa_flushes / flushes if flushes else 0.0


def compose_append_image(
    flash_image: bytes,
    payloads: list[bytes],
    scheme: IpaScheme,
    start_slot: int,
) -> tuple[int, bytes]:
    """The Scenario-2 out-image: Flash content + records in erased slots.

    ``payloads`` are encoded delta-records (``DeltaRecord.encode``), laid
    contiguously from delta slot ``start_slot``.  Returns the page offset
    of the first one and the composed image.  Because the original body
    bytes are byte-identical to the Flash copy and the records land in
    erased slots, the transition is append-legal and an IPA-aware device
    will program it in place.

    Raises:
        ValueError: the payloads run past the N-th slot into the footer.
    """
    size = len(flash_image)
    offset = size - scheme.tail_size + start_slot * scheme.record_size
    data = b"".join(payloads)
    end = offset + len(data)
    if end > size - PAGE_FOOTER_SIZE:
        raise ValueError(
            f"{len(payloads)} record(s) from slot {start_slot} exceed "
            f"N={scheme.n_records}"
        )
    return offset, flash_image[:offset] + data + flash_image[end:]


class WritePolicy(abc.ABC):
    """Strategy deciding how a dirty frame reaches the device."""

    name: str = "abstract"

    @abc.abstractmethod
    def flush(self, manager: "StorageManager", frame: Frame) -> None:
        """Persist ``frame`` (must leave it consistent and clean-able)."""

    def _write_full_page(self, manager: "StorageManager", frame: Frame) -> None:
        """Shared out-of-place path: whole up-to-date page, delta area reset."""
        page = frame.page
        page.reset_delta_area()
        page.store_checksum()
        image = page.to_bytes()
        manager.device.write_page(frame.lba, image)
        manager.stats.oop_flushes += 1
        manager.stats.full_page_bytes_written += len(image)
        frame.flash_image = image
        frame.flash_delta_count = 0
        frame.tracker.reset_after_flush(0)


class TraditionalPolicy(WritePolicy):
    """Whole-page out-of-place writes; the [0x0] baseline."""

    name = "traditional"

    def flush(self, manager: "StorageManager", frame: Frame) -> None:
        self._write_full_page(manager, frame)


class _IpaPolicyBase(WritePolicy):
    """Shared IPA eviction logic (Section 3, "Page operations")."""

    def flush(self, manager: "StorageManager", frame: Frame) -> None:
        tracker = frame.tracker
        if (
            frame.flash_image is None
            or not tracker.ipa_eligible
            or not tracker.dirty
        ):
            self._write_full_page(manager, frame)
            return
        page = frame.page
        page.store_checksum()
        records = tracker.build_delta_records(*page.metadata())
        if not records:
            self._write_full_page(manager, frame)
            return
        scheme = manager.scheme
        payloads = [record.encode(scheme) for record in records]
        offset, new_image = compose_append_image(
            frame.flash_image, payloads, scheme, frame.flash_delta_count
        )
        if self._ship(manager, frame, offset, payloads, new_image):
            frame.flash_image = new_image
            frame.flash_delta_count += len(records)
            tracker.reset_after_flush(frame.flash_delta_count)
            manager.stats.ipa_flushes += 1
            manager.stats.delta_records_written += len(records)
        else:
            manager.stats.ipa_fallbacks += 1
            self._write_full_page(manager, frame)

    @abc.abstractmethod
    def _ship(
        self,
        manager: "StorageManager",
        frame: Frame,
        offset: int,
        payloads: list[bytes],
        new_image: bytes,
    ) -> bool:
        """Send the encoded records (``payloads``, contiguous from page
        ``offset``; ``new_image`` is the Flash copy with them in place).
        False => the caller falls back to a full write."""


class IpaNativePolicy(_IpaPolicyBase):
    """Demo-Scenario 3: ship only the delta bytes via write_delta."""

    name = "ipa-native"

    def _ship(
        self,
        manager: "StorageManager",
        frame: Frame,
        offset: int,
        payloads: list[bytes],
        new_image: bytes,
    ) -> bool:
        for payload in payloads:
            if not manager.device.write_delta(frame.lba, offset, payload):
                return False
            manager.stats.delta_bytes_written += len(payload)
            offset += len(payload)
        return True


class IpaBlockDevicePolicy(_IpaPolicyBase):
    """Demo-Scenario 2: whole composed pages over a block interface.

    The composed image is transferred in full (no DBMS write-amplification
    saving) but the IPA-aware FTL programs it in place (full GC saving).
    """

    name = "ipa-blockdev"

    def _ship(
        self,
        manager: "StorageManager",
        frame: Frame,
        offset: int,
        payloads: list[bytes],
        new_image: bytes,
    ) -> bool:
        manager.device.write_page(frame.lba, new_image)
        manager.stats.full_page_bytes_written += len(new_image)
        return True


class _PageAccess:
    """``with manager.page(lba)``: the page stays pinned inside the block."""

    __slots__ = ("_manager", "_lba", "_frame")

    def __init__(self, manager: "StorageManager", lba: int) -> None:
        self._manager = manager
        self._lba = lba

    def __enter__(self) -> SlottedPage:
        self._frame = frame = self._manager.fetch(self._lba)
        return frame.page

    def __exit__(self, *_exc: object) -> None:
        self._frame.unpin()


class _UpdateOp:
    """``with manager.update(lba)``: one bracketed update operation.

    A wrapper over :meth:`StorageManager.fetch` and
    :meth:`StorageManager.end_update`, which hot callers
    (:class:`~repro.storage.heap.HeapFile`) use directly.
    """

    __slots__ = ("_manager", "_lba", "_frame")

    def __init__(self, manager: "StorageManager", lba: int) -> None:
        self._manager = manager
        self._lba = lba

    def __enter__(self) -> SlottedPage:
        self._frame = frame = self._manager.fetch(self._lba)
        self._manager.begin_update(frame)
        return frame.page

    def __exit__(self, exc_type: object, *_exc: object) -> None:
        self._manager.end_update(self._frame, exc_type is None)


class _WalGroup:
    """``with manager.wal_group()``: one WAL commit group.

    A normal exit flushes the group through
    :meth:`StorageManager.end_wal_group`.  An exception propagates
    unchanged and flushes nothing: after a ``PowerLossError`` the device
    is off, and after any other error the group's transactions were never
    acknowledged.  The group stays open, so the next ``wal_group()``
    raises ``RuntimeError("WAL commit group already open")``.
    """

    __slots__ = ("_manager",)

    def __init__(self, manager: "StorageManager") -> None:
        self._manager = manager

    def __enter__(self) -> None:
        wal = self._manager.wal
        if wal is not None:
            wal.begin_group()

    def __exit__(self, exc_type: object, *_exc: object) -> None:
        if exc_type is None:
            self._manager.end_wal_group()


class StorageManager:
    """Owns the buffer pool and mediates all page access.

    Args:
        device: Any :class:`~repro.ftl.interface.FlashBackend`.
        scheme: The IPA N x M scheme used for every page (use
            :data:`~repro.core.config.IPA_DISABLED` for the baseline).
        policy: The eviction write policy.
        buffer_capacity: Buffer pool size in frames.

    Raises:
        ValueError: if the device's pages are larger than
            :data:`~repro.core.config.MAX_PAGE_SIZE`, which the page's
            u16 offsets cannot address.
    """

    #: Observability: replaced per-instance by :meth:`attach`.  The
    #: manager charges its flushes to the ``host_heap`` cause.
    tracer = NULL_TRACER
    ledger = NULL_LEDGER

    #: CPU-side latency charges, one table for every stack (frozen and
    #: validated on construction: fetch() and end_update() charge it
    #: without SimClock.advance's own check).
    host_costs = HostCostModel()

    def __init__(
        self,
        device: FlashBackend,
        scheme: IpaScheme,
        policy: WritePolicy,
        buffer_capacity: int = 128,
    ) -> None:
        page_size = device.chip.geometry.page_size
        if page_size > MAX_PAGE_SIZE:
            raise ValueError(
                f"page size {page_size} exceeds the {MAX_PAGE_SIZE}-byte limit "
                "of u16 page offsets (slots, free lower, WAL changes)"
            )
        self.device = device
        self.scheme = scheme
        self.policy = policy
        self.clock = device.chip.clock
        self.stats = ManagerStats()
        self.pool = BufferPool(buffer_capacity, self._flush)
        self._next_lsn = 1
        self._next_file_lba = 0
        #: Optional write-ahead log (see :mod:`repro.engine.wal`): when
        #: attached, every update operation and page format is logged.
        self.wal = None
        self.pool.veto_overflow = self._veto_overflow

    @property
    def page_size(self) -> int:
        return self.device.chip.geometry.page_size

    def attach(
        self,
        tracer: Tracer | NullTracer,
        ledger: WriteLedger,
        lifetimes: LifetimeTracker,
    ) -> None:
        """Point the observers at every layer of this stack that reads
        them: this manager, its buffer pool, the device (which forwards to
        its own parts) and the WAL, if one is mounted."""
        self.tracer = tracer
        self.ledger = ledger
        self.pool.tracer = tracer
        self.device.attach(tracer, ledger, lifetimes)
        if self.wal is not None:
            self.wal.attach(ledger)

    # ------------------------------------------------------------------ #
    # Page lifecycle
    # ------------------------------------------------------------------ #

    def format_page(self, lba: int, file_id: int = 0) -> Frame:
        """Create a brand-new (never-persisted) page; returns it pinned."""
        if lba in self.pool:
            raise ValueError(f"lba {lba} already resident")
        if self.wal is not None:
            self.wal.log_format(self._take_lsn(), lba, file_id)
            self.pool.no_steal.add(lba)
        page = SlottedPage.fresh(lba, self.page_size, self.scheme, file_id=file_id)
        tracker = ChangeTracker(
            self.scheme, 0, PAGE_HEADER_SIZE, page.delta_start
        )
        page.set_observer(tracker)
        frame = Frame(lba, page, tracker, flash_image=None, flash_delta_count=0)
        self.pool.insert(frame)
        frame.pin()
        return frame

    def fetch(self, lba: int) -> Frame:
        """Pin and return the frame for ``lba``, reading it if absent."""
        pool = self.pool
        stats = pool.stats
        stats.fetches += 1
        frame = pool._frames.get(lba)
        if frame is not None:
            # A hit is one Python frame: BufferPool.get, SimClock.advance
            # and Frame.pin, statement for statement.
            pool._frames.move_to_end(lba)
            stats.hits += 1
            cost = self.host_costs.per_buffer_hit_us
            clock = self.clock
            clock._now_us += cost
            breakdown = clock.breakdown_us
            breakdown["host"] = breakdown.get("host", 0.0) + cost
            frame.pin_count += 1
            return frame
        stats.misses += 1
        tr = self.tracer
        if not tr.enabled:
            image = self.device.read_page(lba)
        else:
            with tr.span("page_fetch", lba=lba):
                image = self.device.read_page(lba)
        # A miss runs in this frame too: reconstruct, checksum compare,
        # tracker attached (SlottedPage.set_observer, inlined) and the
        # frame built pinned.  Only a page that fails to verify goes
        # through the torn-tail repair.
        scheme = self.scheme
        try:
            page_buf, k = reconstruct(image, scheme)
            page = SlottedPage(page_buf, scheme)
            intact = page.verify_checksum()
        except (DeltaFormatError, ReconstructionError):
            intact = False
        if not intact:
            page, k = self._load_page(image, lba)
        tracker = ChangeTracker(scheme, k, PAGE_HEADER_SIZE, page.delta_start)
        page._observer = tracker
        frame = Frame(lba, page, tracker, flash_image=image, flash_delta_count=k)
        frame.pin_count = 1
        pool.insert(frame)
        return frame

    def end_update(self, frame: Frame, completed: bool) -> None:
        """Close the update operation opened on a fetched ``frame``.

        The other half of ``frame = fetch(lba); begin_update(frame)``:
        stamps a fresh LSN (logging the operation when a WAL is attached),
        closes the tracker bracket, does the accounting and unpins, also
        after a failed operation (``HeapFile`` probes pages with inserts
        that may raise ``PageFullError``) but for the LSN and WAL record.
        """
        lsn = 0
        if completed:
            lsn = self._next_lsn
            self._next_lsn = lsn + 1
            frame.page.set_lsn(lsn)
        tracker = frame.tracker
        size = tracker.end_op()
        runs = tracker.last_op_runs if self.wal is not None and lsn else None
        self._account(frame, size, lsn, runs, frame.page.file_id)

    def update_field(
        self, frame: Frame, slot_no: int, field_offset: int, data: bytes, file_id: int
    ) -> None:
        """A single-field update of a fetched ``frame`` in one pass
        (:meth:`SlottedPage.update_stamped`), accounted and unpinned like
        every operation.  ``file_id`` is the page's (its heap file knows)."""
        lsn = self._next_lsn
        try:
            size, runs = frame.page.update_stamped(
                slot_no, field_offset, data, lsn, self.wal is not None
            )
        except (RuntimeError, IndexError, KeyError, ValueError):
            # Nothing changed: refused again (pin dropped) or a failed op.
            self.begin_update(frame)
            self.end_update(frame, False)
            raise
        self._next_lsn = lsn + 1
        self._account(frame, size, lsn, runs, file_id)

    def insert_record(self, frame: Frame, record: bytes, file_id: int) -> int:
        """An insert into a fetched ``frame`` in one pass
        (:meth:`SlottedPage.insert_stamped`), accounted and unpinned like
        every operation; returns the slot number.  ``file_id`` is the
        page's (its heap file knows).

        Raises:
            PageFullError, ValueError: the page refused the record; the
                failed operation is accounted as :meth:`end_update` does
                one, without an LSN.
            RuntimeError: an operation is open on the page (pin dropped).
        """
        lsn = self._next_lsn
        try:
            slot, size, runs = frame.page.insert_stamped(
                record, lsn, self.wal is not None
            )
        except (RuntimeError, PageFullError, ValueError):
            # Nothing changed: refused again (pin dropped) or a failed op.
            self.begin_update(frame)
            self.end_update(frame, False)
            raise
        self._next_lsn = lsn + 1
        self._account(frame, size, lsn, runs, file_id)
        return slot

    def _account(
        self, frame: Frame, size: int, lsn: int, runs: list | None, file_id: int
    ) -> None:
        """Every operation's tail; SimClock.advance and Frame.unpin inlined."""
        stats = self.stats
        if size:
            sizes = stats.per_file_op_sizes
            try:
                sizes[file_id].append(size)
            except KeyError:
                sizes[file_id] = [size]
        if lsn and self.wal is not None:
            self.wal.log_update(lsn, frame.lba, runs)
            self.pool.no_steal.add(frame.lba)
        frame.dirty = True
        stats.update_ops += 1
        cost = self.host_costs.ipa_tracking_us
        clock = self.clock
        clock._now_us += cost
        breakdown = clock.breakdown_us
        try:
            breakdown["host"] += cost
        except KeyError:
            breakdown["host"] = cost
        if frame.pin_count <= 0:
            raise RuntimeError(f"unpin of unpinned frame (lba {frame.lba})")
        frame.pin_count -= 1

    def begin_update(self, frame: Frame) -> None:
        """Open ``frame``'s update operation; a refused one drops its pin."""
        try:
            frame.tracker.begin_op()
        except RuntimeError:
            frame.pin_count -= 1
            raise

    def unpin(self, frame: Frame) -> None:
        """Release a pin taken by :meth:`fetch` / :meth:`format_page`."""
        frame.unpin()

    def page(self, lba: int) -> "_PageAccess":
        """Read-only access: ``with manager.page(lba) as p: ...``."""
        return _PageAccess(self, lba)

    def update(self, lba: int) -> "_UpdateOp":
        """One update operation == one candidate delta-record.

        ``with manager.update(lba) as p: ...`` stamps a fresh LSN and
        closes the tracker bracket on exit (see :meth:`end_update`).
        """
        return _UpdateOp(self, lba)

    def commit_wal(self) -> None:
        """Group-commit the open transaction and release its pages.

        Routes through the manager (rather than calling ``wal.commit()``
        directly) so the no-steal set is cleared in the same step that
        makes the transaction durable: from here on its dirty pages may
        reach the data device freely.

        Inside a WAL commit *group* (:meth:`wal_group`, used by the
        sharded service tier) the frame is only buffered, so the
        transaction is not durable yet — the no-steal set is kept and
        released by :meth:`end_wal_group` (or by the veto-overflow hook,
        which forces the group to flush early).
        """
        if self.wal is not None:
            self.wal.commit()
            if self.wal.in_group:
                return  # durable only at group flush; keep the no-steal set
        self.pool.no_steal.clear()

    def wal_group(self) -> _WalGroup:
        """``with manager.wal_group():`` — the block's commits flush
        together at its exit (see :class:`_WalGroup`)."""
        return _WalGroup(self)

    def end_wal_group(self) -> None:
        """Flush the open commit group and release its no-steal pages."""
        if self.wal is not None:
            self.wal.end_group()
        self.pool.no_steal.clear()

    def flush_all(self) -> None:
        """Checkpoint: push every dirty frame to the device."""
        self.pool.flush_all()

    # ------------------------------------------------------------------ #
    # File-space allocation (flat, contiguous)
    # ------------------------------------------------------------------ #

    def allocate_lba_range(self, n_pages: int) -> tuple[int, int]:
        """Reserve the next ``n_pages`` LBAs; returns (base, end)."""
        base = self._next_file_lba
        end = base + n_pages
        if end > self.device.logical_pages:
            raise ValueError(
                f"file of {n_pages} pages exceeds device capacity "
                f"({self.device.logical_pages} LBAs, {base} used)"
            )
        self._next_file_lba = end
        return base, end

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _take_lsn(self) -> int:
        lsn = self._next_lsn
        self._next_lsn += 1
        return lsn

    def _veto_overflow(self) -> bool:
        """Release the no-steal set by forcing an early group commit.

        Fires when the open transaction has dirtied every evictable
        frame of the pool: rather than stealing an undurable page (the
        pre-hook behavior, which a crash could turn into uncommitted
        bytes the redo-only log knows nothing about), make the buffered
        records durable now.  This trades a sliver of atomicity for
        progress — the prefix of the over-large transaction becomes a
        durable frame of its own, exactly what a redo-only engine
        without undo must do when a transaction outgrows the pool
        (steal would need undo logging we deliberately do not have).
        """
        if self.wal is None or not self.pool.no_steal:
            return False
        self.wal.commit()
        if self.wal.in_group:
            # Commits inside a group only buffer their frame; the pages
            # are legal victims only once the bytes are on the device.
            self.wal.flush_group()
        self.pool.no_steal.clear()
        self.stats.forced_wal_flushes += 1
        return True

    def _load_page(self, image: bytes, lba: int) -> tuple[SlottedPage, int]:
        """Repair a torn delta tail: :meth:`fetch`'s fallback when the
        straight reconstruction of ``image`` fails to verify.

        A power loss during an in-place append (write_delta or a
        Scenario-2 composed reprogram) can only corrupt delta-area
        bytes: the body is byte-identical to the previous durable image,
        so the physical tear lands entirely inside the record being
        appended.  Retry with successively fewer delta-records until the
        checksum verifies — shedding the torn record recovers the last
        durable version, and the WAL redo reapplies the lost update if
        it was committed.

        Raises:
            PageCorruptError: no delta-record prefix verifies.
        """
        for cap in range(self.scheme.n_records - 1, -1, -1):
            try:
                page_buf, k = reconstruct(image, self.scheme, max_records=cap)
                page = SlottedPage(page_buf, self.scheme)
            except (DeltaFormatError, ReconstructionError):
                continue
            if page.verify_checksum():
                self.stats.torn_repairs += 1
                return page, k
        raise PageCorruptError(
            f"checksum mismatch on lba {lba}: no delta-record prefix "
            f"reconstructs to a valid page"
        )

    def _flush(self, frame: Frame) -> int:
        """Write a dirty frame; returns its net changed body bytes (read
        before the policy resets the tracker, and accounted here)."""
        net_bytes = frame.tracker.net_changed_bytes
        self.stats.net_bytes_updated += net_bytes
        lg = self.ledger
        if not lg.enabled:
            self._flush_inner(frame)
        else:
            with lg.cause("host_heap"):
                self._flush_inner(frame)
        return net_bytes

    def _flush_inner(self, frame: Frame) -> None:
        tr = self.tracer
        if not tr.enabled:
            self.policy.flush(self, frame)
        else:
            # The host-side write: any GC the device performs underneath
            # (gc_collect / gc_erase spans) nests under this span, which
            # is how erase stalls are attributed back to transactions.
            with tr.span(
                "host_write",
                lba=frame.lba,
                policy=self.policy.name,
                reason=self.pool.flush_reason,
            ):
                self.policy.flush(self, frame)
        frame.dirty = False
