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
    PAGE_FOOTER_SIZE,
    PAGE_HEADER_SIZE,
    IpaScheme,
)
from repro.core.delta import DeltaFormatError, DeltaRecord
from repro.core.reconstruct import ReconstructionError, reconstruct
from repro.core.tracker import ChangeTracker
from repro.flash.latency import HostCostModel
from repro.ftl.interface import FlashBackend
from repro.obs.ledger import NULL_LEDGER, LifetimeTracker, WriteLedger
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.storage.buffer import BufferPool, Frame
from repro.storage.layout import PageCorruptError, SlottedPage


@dataclass
class ManagerStats:
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


def compose_append_image(
    flash_image: bytes,
    records: list[DeltaRecord],
    scheme: IpaScheme,
    start_slot: int,
) -> bytes:
    """The Scenario-2 out-image: Flash content + records in erased slots.

    Because the original body bytes are byte-identical to the Flash copy
    and the records land in erased slots, the transition is append-legal
    and an IPA-aware device will program it in place.
    """
    if records and start_slot + len(records) > scheme.n_records:
        raise ValueError(
            f"slot {max(start_slot, scheme.n_records)} exceeds "
            f"N={scheme.n_records}"
        )
    delta_start = len(flash_image) - PAGE_FOOTER_SIZE - scheme.delta_area_size
    return _splice(
        flash_image,
        delta_start + start_slot * scheme.record_size,
        b"".join([record.encode(scheme) for record in records]),
    )


def _splice(image: bytes, offset: int, data: bytes) -> bytes:
    """``image`` with ``data`` laid over it at ``offset``."""
    return b"".join((image[:offset], data, image[offset + len(data) :]))


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
        offset = page.delta_start + frame.flash_delta_count * scheme.record_size
        new_image = _splice(frame.flash_image, offset, b"".join(payloads))
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
        frame.tracker.begin_op()
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
        host_costs: CPU-side latency charges.
        verify_checksums: Verify page checksums on fetch (catches IPA
            reconstruction bugs; on by default).
        replacement: Buffer replacement policy, "lru" or "clock".
    """

    #: Observability: replaced per-instance by :meth:`attach`.  The
    #: manager charges its flushes to the ``host_heap`` cause.
    tracer = NULL_TRACER
    ledger = NULL_LEDGER

    def __init__(
        self,
        device: FlashBackend,
        scheme: IpaScheme,
        policy: WritePolicy,
        buffer_capacity: int = 128,
        host_costs: HostCostModel | None = None,
        verify_checksums: bool = True,
        replacement: str = "lru",
    ) -> None:
        self.device = device
        self.scheme = scheme
        self.policy = policy
        self.host_costs = host_costs or HostCostModel()
        if self.host_costs.per_buffer_hit_us < 0:
            # fetch() charges a hit without SimClock.advance's own check.
            raise ValueError(
                f"per_buffer_hit_us must be >= 0, got "
                f"{self.host_costs.per_buffer_hit_us}"
            )
        self.verify_checksums = verify_checksums
        self.clock = device.chip.clock
        self.stats = ManagerStats()
        self.pool = BufferPool(
            buffer_capacity, self._flush, replacement=replacement
        )
        self._next_lsn = 1
        self._next_file_lba = 0
        #: Optional write-ahead log (see :mod:`repro.engine.wal`): when
        #: attached, every update operation and page format is logged.
        self.wal = None
        #: LBAs dirtied by the currently open transaction (WAL attached
        #: only).  The buffer pool avoids evicting them until
        #: :meth:`commit_wal` clears the set — a soft no-steal policy, so
        #: a crash cannot leave uncommitted bytes on the data device that
        #: the redo-only log knows nothing about.
        self._txn_locked_lbas: set[int] = set()
        self.pool.evict_veto = self._evict_veto
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
            self._txn_locked_lbas.add(lba)
        page = SlottedPage.fresh(lba, self.page_size, self.scheme, file_id=file_id)
        tracker = ChangeTracker(
            self.scheme, 0, PAGE_HEADER_SIZE, page.delta_start
        )
        page.set_write_hook(tracker.on_write)
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
            if pool.replacement == "lru":
                pool._frames.move_to_end(lba)
            else:
                pool._referenced[lba] = True
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
        page, k = self._load_page(image, lba)
        tracker = ChangeTracker(
            self.scheme, k, PAGE_HEADER_SIZE, page.delta_start
        )
        page.set_write_hook(tracker.on_write)
        frame = Frame(lba, page, tracker, flash_image=image, flash_delta_count=k)
        pool.insert(frame)
        frame.pin()
        return frame

    def end_update(self, frame: Frame, completed: bool) -> None:
        """Close the update operation opened on a fetched ``frame``.

        The other half of ``frame = fetch(lba); frame.tracker.begin_op()``:
        stamps a fresh LSN (logging the operation when a WAL is attached),
        closes the tracker bracket, does the accounting and unpins.  All of
        it runs whether or not the operation completed — only the LSN stamp
        (and with it the WAL record) is skipped when it did not.
        ``HeapFile`` probes pages with inserts that may raise
        ``PageFullError``, and each probe is charged and counted like a
        completed operation.
        """
        tracker = frame.tracker
        lsn = 0
        try:
            if completed:
                lsn = self._next_lsn
                self._next_lsn = lsn + 1
                frame.page.set_lsn(lsn)
        finally:
            size = tracker.end_op()
            if size:
                self.stats.per_file_op_sizes.setdefault(
                    frame.page.file_id, []
                ).append(size)
            if self.wal is not None and lsn:
                self.wal.log_update(lsn, frame.lba, tracker.last_op_changes)
                self._txn_locked_lbas.add(frame.lba)
            frame.dirty = True
            self.stats.update_ops += 1
            self.clock.advance(self.host_costs.ipa_tracking_us, "host")
            frame.unpin()

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
        self._txn_locked_lbas.clear()

    def wal_group(self) -> _WalGroup:
        """``with manager.wal_group():`` — the block's commits flush
        together at its exit (see :class:`_WalGroup`)."""
        return _WalGroup(self)

    def end_wal_group(self) -> None:
        """Flush the open commit group and release its no-steal pages."""
        if self.wal is not None:
            self.wal.end_group()
        self._txn_locked_lbas.clear()

    def abort_wal(self) -> None:
        """Drop the open transaction's log records and release its pages."""
        if self.wal is not None:
            self.wal.discard()
        self._txn_locked_lbas.clear()

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

    def _evict_veto(self, frame: Frame) -> bool:
        return frame.lba in self._txn_locked_lbas

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
        if self.wal is None or not self._txn_locked_lbas:
            return False
        self.wal.commit()
        if self.wal.in_group:
            # Commits inside a group only buffer their frame; the pages
            # are legal victims only once the bytes are on the device.
            self.wal.flush_group()
        self._txn_locked_lbas.clear()
        self.stats.forced_wal_flushes += 1
        return True

    def _load_page(self, image: bytes, lba: int) -> tuple[SlottedPage, int]:
        """Reconstruct + checksum-verify, repairing a torn delta tail.

        A power loss during an in-place append (write_delta or a
        Scenario-2 composed reprogram) can only corrupt delta-area
        bytes: the body is byte-identical to the previous durable image,
        so the physical tear lands entirely inside the record being
        appended.  When the straight reconstruction fails, retry with
        successively fewer delta-records until the checksum verifies —
        shedding the torn record recovers the last durable version, and
        the WAL redo reapplies the lost update if it was committed.
        """
        try:
            page_buf, k = reconstruct(image, self.scheme)
            page = SlottedPage(page_buf, self.scheme)
            if not self.verify_checksums or page.verify_checksum():
                return page, k
        except (DeltaFormatError, ReconstructionError):
            if not self.verify_checksums:
                raise
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

    def _flush(self, frame: Frame) -> None:
        # Account net change before the policy resets the tracker.
        self.stats.net_bytes_updated += len(frame.tracker.net_changed_offsets)
        lg = self.ledger
        if not lg.enabled:
            self._flush_inner(frame)
            return
        with lg.cause("host_heap"):
            self._flush_inner(frame)

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
