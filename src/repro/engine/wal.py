"""Write-ahead logging and crash recovery.

The paper asserts that "the regular database functionality (e.g.
recovery, locking, etc.) is NOT impacted by the proposed approach".
This module puts that claim under test: a redo-only physiological WAL
whose records are *byte-level page updates* — exactly the information
the IPA change tracker already collects — running on its own dedicated
log Flash.  Because the WAL describes logical page changes, it is
completely agnostic to whether the data device persisted them as
whole-page writes, composed append images, or write_delta records.

Protocol:

* every update operation appends one :class:`PageUpdateRecord`
  (lsn, lba, changed bytes incl. header/footer) to the current
  transaction's buffer;
* page formats append a :class:`FormatRecord` (new pages are recreated
  deterministically during redo);
* commit wraps the transaction's records in one *commit frame* —
  ``magic | length | CRC32(payload) | payload`` — and flushes it to the
  log device (group commit at transaction granularity).  The
  transaction is durable iff its complete frame is on the device: a
  power loss between the partial programs of a frame split across a
  page boundary leaves a short or CRC-failing payload, which the log
  scan rejects, so a torn commit can never masquerade as a durable one;
* :func:`recover` replays the committed frames against a freshly
  mounted stack using the standard LSN redo test (apply iff
  ``page.lsn < record.lsn``), then truncates the log — after the
  replayed pages are flushed, every frame is superseded, and restarting
  the log clean means the device never appends after torn bytes.

Durability is decided by the *device*, never by Python state: the scan
in :meth:`WriteAheadLog.durable_frames` reads the log chip page by page
(stopping at the first fully-erased page) and a fresh
:class:`WriteAheadLog` constructed over a surviving chip recovers
exactly what a long-lived instance would.  See ``docs/recovery.md``.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

from repro.core.config import MAX_PAGE_SIZE
from repro.flash.chip import FlashChip
from repro.flash.errors import IllegalProgramError
from repro.flash.stats import Counters
from repro.flash import PageState
from repro.obs.ledger import NULL_LEDGER, WriteLedger
from repro.obs.trace import NULL_TRACER

_MAGIC_UPDATE = 0x5A
_MAGIC_FORMAT = 0x5B
_MAGIC_FRAME = 0x5C
_ERASED = 0xFF
_ERASED_CHAR = b"\xff"

#: Commit-frame header: magic (1) + payload length (u32 LE) + CRC32 (u32 LE).
_FRAME_HEAD = struct.Struct("<BII")
FRAME_HEADER_SIZE = _FRAME_HEAD.size

#: Record header: magic (1) + lsn (u64) + lba (u32) + a u16 tail — the
#: change count of an update record, the file id of a format record.
_RECORD_HEAD = struct.Struct("<BQIH")
#: One change of an update record: page offset (u16) + new byte value.
_CHANGE = struct.Struct("<HB")


#: The ``<HB`` change ``(offset, 0)`` of every u16 offset: a run's are one slice.
_CHANGES = bytearray(_CHANGE.size * MAX_PAGE_SIZE)
_CHANGES[0::3] = bytes(range(256)) * (MAX_PAGE_SIZE >> 8)
_CHANGES[1::3] = b"".join(bytes((high,)) * 256 for high in range(MAX_PAGE_SIZE >> 8))


@dataclass(frozen=True)
class PageUpdateRecord:
    """Redo record: set ``changes[offset] = value`` on page ``lba``.

    What :func:`decode_records` returns; the log writes one with
    :meth:`WriteAheadLog.log_update`.
    """

    lsn: int
    lba: int
    changes: tuple  # ((offset, value), ...)


@dataclass(frozen=True)
class FormatRecord:
    """Redo record: page ``lba`` was freshly formatted for ``file_id``."""

    lsn: int
    lba: int
    file_id: int

    def encode(self) -> bytes:
        return _RECORD_HEAD.pack(_MAGIC_FORMAT, self.lsn, self.lba, self.file_id)


def decode_records(data: bytes) -> list:
    """Parse a log byte stream (stops at erased bytes).

    Raises:
        ValueError: a record with an unknown magic, or one cut short by
            the end of ``data`` (frames are CRC-checked before they get
            here, so either means corruption).
    """
    records = []
    pos = 0
    size = len(data)
    while pos < size:
        magic = data[pos]
        if magic == _ERASED:
            break
        if magic != _MAGIC_UPDATE and magic != _MAGIC_FORMAT:
            raise ValueError(f"corrupt log record magic 0x{magic:02x}")
        head_end = pos + _RECORD_HEAD.size
        if head_end > size:
            raise ValueError(f"log record at byte {pos} is cut short")
        _magic, lsn, lba, tail = _RECORD_HEAD.unpack_from(data, pos)
        if magic == _MAGIC_FORMAT:
            records.append(FormatRecord(lsn, lba, tail))
            pos = head_end
            continue
        end = head_end + tail * _CHANGE.size
        if end > size:
            raise ValueError(f"log record at byte {pos} is cut short")
        changes = tuple(_CHANGE.iter_unpack(data[head_end:end]))
        records.append(PageUpdateRecord(lsn, lba, changes))
        pos = end
    return records


def encode_frame(payload: bytes) -> bytes:
    """Wrap one transaction's records in a commit frame."""
    return (
        _FRAME_HEAD.pack(_MAGIC_FRAME, len(payload), zlib.crc32(payload))
        + payload
    )


def decode_frames(stream: bytes) -> list[bytes]:
    """Extract the durable frame payloads from a raw log byte stream.

    Walks frames front to back and stops at the first position that is
    not a complete, CRC-verified frame — an erased tail, a torn frame
    header, or a torn payload all terminate the committed prefix.
    Everything beyond the first invalid frame is by construction
    post-crash garbage (the writer is strictly sequential), so it is
    never inspected.
    """
    return _scan_frames(stream)[0]


def _scan_frames(stream: bytes) -> tuple[list[bytes], int]:
    """:func:`decode_frames`, plus where the last complete frame ends."""
    frames: list[bytes] = []
    pos = 0
    n = len(stream)
    while pos + FRAME_HEADER_SIZE <= n:
        magic, length, crc = _FRAME_HEAD.unpack_from(stream, pos)
        if magic != _MAGIC_FRAME:
            break
        start = pos + FRAME_HEADER_SIZE
        payload = stream[start : start + length]
        if len(payload) < length:
            break
        if zlib.crc32(payload) != crc:
            break
        frames.append(payload)
        pos = start + length
    return frames, pos


@dataclass
class WalStats(Counters):
    """Log-side counters."""

    records_logged: int = 0
    commits: int = 0
    bytes_flushed: int = 0
    log_page_programs: int = 0
    #: Device flushes that carried a whole commit *group* (the service
    #: tier's per-shard group commit; see :meth:`WriteAheadLog.end_group`).
    group_flushes: int = 0
    #: Commit frames deferred into a group buffer instead of flushed
    #: individually.
    grouped_commits: int = 0


class WriteAheadLog:
    """A sequential redo log on a dedicated Flash chip.

    The log appends within pages using partial programming (the same
    physical mechanism IPA uses — log devices have exploited it for
    years, which the paper cites as evidence the mechanism is sound).

    Constructing the object *mounts* the chip: the append cursor is
    positioned after the last programmed byte found on the device, so a
    WriteAheadLog built over a chip that survived a crash carries no
    stale Python state — durability queries and recovery read the
    device, never in-memory mirrors.
    """

    #: Write-attribution ledger: replaced per-instance by :meth:`attach`
    #: (the log device's programs and truncation erases are attributed to
    #: the ``wal`` cause).
    ledger = NULL_LEDGER

    def __init__(self, chip: FlashChip) -> None:
        #: The log device.  Appends and truncations end in its ``sync()``
        #: flush barrier: a :class:`~repro.flash.device.FlashDevice`
        #: overlaps array pulses with the host, and an append must wait
        #: them out before a commit is acknowledged, or power loss could
        #: tear an op the caller already considers durable (on a bare
        #: :class:`FlashChip` the barrier is a no-op).
        self.chip = chip
        self.stats = WalStats()
        self._txn_buffer: list[bytes] = []
        #: Encoded commit frames awaiting one grouped device flush
        #: (non-empty only between begin_group/end_group).
        self._group_frames: list[bytes] = []
        #: True between :meth:`begin_group` and :meth:`end_group`.
        self.in_group = False
        self._page_index = 0
        self._page_offset = 0
        self._mount()

    def attach(self, ledger: WriteLedger) -> None:
        """Charge the log device's writes to ``ledger`` (cause ``wal``).

        The log's leaf chips charge and are watched; the log is not
        traced.
        """
        self.ledger = ledger
        self.chip.attach(NULL_TRACER, ledger)

    # ------------------------------------------------------------------ #
    # Logging
    # ------------------------------------------------------------------ #

    def log_update(self, lsn: int, lba: int, runs: list) -> None:
        """Buffer one page-update record (durable only at commit).

        ``runs`` are the op's changed bytes as sorted, disjoint
        ``(offset, new bytes)`` pairs
        (:attr:`~repro.core.tracker.ChangeTracker.last_op_runs`); the
        record lists each of their bytes as one ``<HB`` change, in order.
        A run's changes are one slice of the offset table, and the values
        of all runs go over them with one strided slice store, so no
        per-byte Python object is made.
        """
        if not runs:
            return
        table = _CHANGES
        head = _RECORD_HEAD.size
        record = bytearray(head)
        values = bytearray()
        count = 0
        for offset, data in runs:
            size = len(data)
            record += table[3 * offset : 3 * (offset + size)]
            values += data
            count += size
        _RECORD_HEAD.pack_into(record, 0, _MAGIC_UPDATE, lsn, lba, count)
        try:
            record[head + 2 :: 3] = values
        except ValueError:
            # Only a run past the u16 offsets gets a short slice.
            end = max(offset + len(data) for offset, data in runs)
            raise ValueError(f"change offset {end - 1} is not a u16") from None
        self._txn_buffer.append(record)
        self.stats.records_logged += 1

    def log_format(self, lsn: int, lba: int, file_id: int) -> None:
        """Buffer one page-format record."""
        self._txn_buffer.append(FormatRecord(lsn, lba, file_id).encode())
        self.stats.records_logged += 1

    def commit(self) -> None:
        """Force the buffered records to the log device (group commit).

        The records are framed (magic + length + CRC) so that a crash
        anywhere inside the flush leaves a frame the recovery scan
        rejects as a unit: a transaction is either entirely durable or
        entirely absent.
        """
        if not self._txn_buffer:
            self.stats.commits += 1
            return
        payload = b"".join(self._txn_buffer)
        self._txn_buffer = []
        frame = encode_frame(payload)
        if self.in_group:
            # Group commit (service tier): the frame is complete and
            # CRC-framed now, but the device flush is deferred until
            # end_group() so frames sharing a log page cost one
            # partial-program pulse instead of one each.  The media bytes
            # are identical either way — only op counts and commit
            # latency change.
            self._group_frames.append(frame)
            self.stats.grouped_commits += 1
        else:
            self._append(frame)
        self.stats.commits += 1

    # ------------------------------------------------------------------ #
    # Group commit (per-shard batching in the service tier)
    # ------------------------------------------------------------------ #

    def begin_group(self) -> None:
        """Start deferring commit frames into one grouped device flush.

        Until :meth:`end_group`, every :meth:`commit` buffers its frame
        in memory.  A transaction committed inside a group is durable
        only once the group flushes — the standard group-commit window.
        The storage manager keeps its no-steal set across the group (see
        ``StorageManager.commit_wal``), so undurable pages cannot leak
        to the data device in the meantime.
        """
        if self.in_group:
            raise RuntimeError("WAL commit group already open")
        self.in_group = True

    def end_group(self) -> None:
        """Flush the buffered group frames in one device append."""
        if not self.in_group:
            raise RuntimeError("no WAL commit group open")
        self.in_group = False
        self.flush_group()

    def flush_group(self) -> None:
        """Force any buffered group frames to the device immediately.

        Safe to call mid-group (buffer-pool veto overflow does): the
        group stays open, but everything committed so far becomes
        durable now.
        """
        if not self._group_frames:
            return
        payload = b"".join(self._group_frames)
        self._group_frames = []
        self._append(payload)
        self.stats.group_flushes += 1

    def crash(self) -> None:
        """Simulate power loss on the WAL side: volatile buffers are gone."""
        self._txn_buffer = []
        self._group_frames = []
        self.in_group = False

    def _append(self, payload: bytes) -> None:
        """Append bytes to the sequential log, page by page."""
        lg = self.ledger
        if not lg.enabled:
            self._append_inner(payload)
            return
        with lg.cause("wal"):
            self._append_inner(payload)

    def _append_inner(self, payload: bytes) -> None:
        page_size = self.chip.geometry.page_size
        remaining = payload
        while remaining:
            space = page_size - self._page_offset
            if space <= 0:
                self._page_index += 1
                self._page_offset = 0
                space = page_size
            if self._page_index >= self.chip.geometry.total_pages:
                raise IllegalProgramError("WAL device full; checkpoint needed")
            chunk, remaining = remaining[:space], remaining[space:]
            self.chip.partial_program(
                self._page_index, self._page_offset, chunk
            )
            self._page_offset += len(chunk)
            self.stats.bytes_flushed += len(chunk)
            self.stats.log_page_programs += 1
        self.chip.sync()

    # ------------------------------------------------------------------ #
    # Checkpoint / recovery
    # ------------------------------------------------------------------ #

    def truncate(self) -> None:
        """Checkpoint: all data pages are durable; the log restarts.

        Blocks are erased back to front so a crash mid-truncate leaves
        the log with a *valid prefix* (frames already superseded by the
        flushed data pages — redo is idempotent) rather than an erased
        head with unreachable frames behind it.
        """
        lg = self.ledger
        if not lg.enabled:
            for block in reversed(range(self.chip.geometry.blocks)):
                self.chip.erase_block(block)
        else:
            with lg.cause("wal"):
                for block in reversed(range(self.chip.geometry.blocks)):
                    self.chip.erase_block(block)
        self.chip.sync()
        self._page_index = 0
        self._page_offset = 0
        self._txn_buffer = []
        self._group_frames = []

    def durable_frames(self) -> list[bytes]:
        """Payloads of every complete commit frame, scanned off the device.

        Device truth only: no volatile cursor is consulted, so the
        result is identical for the instance that wrote the log and for
        a fresh instance mounted over the chip after a crash.
        """
        return decode_frames(self._device_stream())

    def durable_records(self) -> list:
        """Every committed record, in log order (reads the log device)."""
        return decode_records(b"".join(self.durable_frames()))

    def _device_stream(self) -> bytes:
        """Concatenated log bytes up to the first fully-erased page.

        The writer fills pages strictly in order, so the first page with
        no programmed byte terminates the log.  (A page of payload can
        never read fully erased: record magics, frame headers and
        16-bit offsets below the page size all force sub-0xFF bytes at
        least every few bytes.)
        """
        chunks: list[bytes] = []
        for page_index in range(self.chip.geometry.total_pages):
            data = self.chip.read_page(page_index)
            if not data.strip(_ERASED_CHAR):
                break
            chunks.append(data)
        return b"".join(chunks)

    def _mount(self) -> None:
        """Position the append cursor from device state (no reads charged).

        Finds the last page the writer touched (page states and raw
        bytes are free to probe — mounting is not a simulated I/O) and
        points the cursor just past its last non-erased byte, but never
        before the end of the last complete frame: a frame may end in
        0xFF bytes (an update record's last value), and appending over
        them would destroy it.  Exact continuation is only guaranteed
        after :func:`recover` + :meth:`truncate`; the scan exists so a
        fresh instance never programs over surviving bytes.
        """
        pages = []
        for page_index in range(self.chip.geometry.total_pages):
            page = self.chip.page_at(page_index)
            if page.state is not PageState.PROGRAMMED:
                break
            pages.append(page.raw_data())
        if not pages:
            return
        last = len(pages) - 1
        raw = pages[last]
        used = len(raw.rstrip(_ERASED_CHAR))
        if used == 0:
            # Programmed but reading all-0xFF (a pathological all-FF
            # payload chunk): skip the page entirely rather than guess.
            used = len(raw)
        _frames, end = _scan_frames(b"".join(pages))
        self._page_index = last
        self._page_offset = max(used, end - last * self.chip.geometry.page_size)


def recover(manager, wal: WriteAheadLog) -> int:
    """Redo the committed log against a mounted storage manager.

    Standard LSN test: a record is applied iff the page's on-disk LSN is
    older — records already persisted (e.g. via an IPA delta that made
    it to Flash before the crash) are skipped, making redo idempotent.
    After the replay every surviving page is flushed and the log is
    truncated, so the next transaction appends to a clean device.

    Returns:
        The number of records that actually changed state: formats that
        recreated a missing page, and updates whose bytes were applied.
        Records that were no-ops (page already present, LSN already
        current) are not counted.
    """
    applied = 0
    max_lsn = 0
    for record in wal.durable_records():
        max_lsn = max(max_lsn, record.lsn)
        if isinstance(record, FormatRecord):
            if record.lba not in manager.pool:
                try:
                    manager.device.read_page(record.lba)
                    # Page survived on flash; formatting would lose it.
                except KeyError:
                    frame = manager.format_page(record.lba, record.file_id)
                    manager.unpin(frame)
                    applied += 1
            continue
        frame = manager.fetch(record.lba)
        try:
            page = frame.page
            if page.lsn >= record.lsn:
                continue  # already durable (delta or page write survived)
            frame.tracker.begin_op()
            for offset, value in record.changes:
                page._write(offset, bytes([value]))
            frame.tracker.end_op()
            frame.mark_dirty()
            applied += 1
        finally:
            manager.unpin(frame)
    manager.flush_all()
    manager._next_lsn = max(manager._next_lsn, max_lsn + 1)
    # The crashed transaction is gone; its no-steal locks must not
    # outlive it (and the log restarts clean below).
    manager.pool.no_steal.clear()
    wal.truncate()
    return applied
