"""In-Page Logging (IPL) — Lee & Moon, SIGMOD 2007 [8].

The paper's closest competitor.  Where IPA co-locates delta-records *on
the very same Flash page*, IPL reserves whole **log pages** inside each
erase block:

* every logical page has a fixed home slot in its block (no page-mapping
  FTL — that is IPL's selling point);
* updates are buffered in an in-memory log sector per block and flushed
  to the block's log region sector-by-sector (partial page programs);
* when the log region fills, the block is **merged**: data pages + logs
  are read, the up-to-date images are written to a spare block, the old
  block is erased;
* a read must fetch the data page **and every written log page** of the
  block — the read overhead the paper hammers on ("under modern OLTP
  workloads with 70 % to 90 % reads, doubling the read load causes
  significant performance bottlenecks").

Log entry wire format (within a sector)::

    lba(4) | pair_count(2) | pair_count x (offset16, value8)

An all-0xFF lba terminates the entry stream of a sector.  Entries are
split so none crosses a sector boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.flash.chip import FlashChip
from repro.flash.stats import DeviceStats
from repro.ftl.interface import DeviceFullError
from repro.obs.ledger import LifetimeTracker, WriteLedger
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.storage.buffer import Frame
from repro.storage.manager import StorageManager, WritePolicy

_EMPTY_LBA = 0xFFFFFFFF
_ENTRY_HEADER = 6
_PAIR = 3

#: Physical blocks an IPL store keeps free for merge destinations.
SPARE_BLOCKS = 2


@dataclass(frozen=True)
class IplConfig:
    """IPL layout parameters.

    Attributes:
        log_pages_per_block: Pages per block reserved for update logs.
        sector_size: Log flush granularity (bytes); 512 B as in [8].

    Every store keeps :data:`SPARE_BLOCKS` blocks free for merges.
    """

    log_pages_per_block: int = 8
    sector_size: int = 512

    def __post_init__(self) -> None:
        if self.log_pages_per_block < 1:
            raise ValueError("need at least one log page per block")
        if self.sector_size < _ENTRY_HEADER + _PAIR:
            raise ValueError("sector too small for a single-pair entry")

    def blocks_for(self, logical_pages: int, pages_per_block: int) -> int:
        """Blocks a store with this layout needs for ``logical_pages``
        LBAs (home slots only; the log pages hold none), spares included."""
        data_fraction = (pages_per_block - self.log_pages_per_block) / pages_per_block
        return int(logical_pages / (pages_per_block * data_fraction)) + SPARE_BLOCKS


@dataclass
class _BlockState:
    """DBMS-side state of one logical block."""

    logical: int
    phys: int
    written: set = field(default_factory=set)  # data-page indexes programmed
    used_sectors: int = 0
    membuf: bytearray = field(default_factory=bytearray)


def encode_entries(lba: int, pairs: list[tuple[int, int]], max_bytes: int) -> list[bytes]:
    """Encode (offset, value) pairs as one or more <= max_bytes entries."""
    pairs_per_entry = (max_bytes - _ENTRY_HEADER) // _PAIR
    if pairs_per_entry < 1:
        raise ValueError("max_bytes cannot hold any pair")
    out = []
    for start in range(0, len(pairs), pairs_per_entry):
        chunk = pairs[start : start + pairs_per_entry]
        buf = bytearray()
        buf += lba.to_bytes(4, "little")
        buf += len(chunk).to_bytes(2, "little")
        for offset, value in chunk:
            buf += offset.to_bytes(2, "little")
            buf += value.to_bytes(1, "little")
        out.append(bytes(buf))
    return out


def decode_entries(sector: bytes) -> list[tuple[int, list[tuple[int, int]]]]:
    """Parse a sector's entry stream: [(lba, pairs), ...]."""
    out = []
    pos = 0
    while pos + _ENTRY_HEADER <= len(sector):
        lba = int.from_bytes(sector[pos : pos + 4], "little")
        if lba == _EMPTY_LBA:
            break
        count = int.from_bytes(sector[pos + 4 : pos + 6], "little")
        pos += _ENTRY_HEADER
        pairs = []
        for _ in range(count):
            if pos + _PAIR > len(sector):
                raise ValueError("truncated log entry")
            offset = int.from_bytes(sector[pos : pos + 2], "little")
            value = sector[pos + 2]
            pairs.append((offset, value))
            pos += _PAIR
        out.append((lba, pairs))
    return out


def diff_pairs(old: bytes, new: bytes) -> list[tuple[int, int]]:
    """Byte-level diff as (offset, new_value) pairs."""
    a = np.frombuffer(old, dtype=np.uint8)
    b = np.frombuffer(new, dtype=np.uint8)
    if a.shape != b.shape:
        raise ValueError("image size mismatch")
    idx = np.flatnonzero(a != b)
    return [(int(i), int(b[i])) for i in idx]


class IplStore:
    """The IPL storage organisation over a raw chip.

    Satisfies the :class:`~repro.ftl.interface.FlashBackend` protocol so
    the shared harness can treat it like any other device, but the write
    path is driven by :class:`IplPolicy` through :meth:`first_write` and
    :meth:`log_update`.
    """

    #: Observability: replaced per-instance by :meth:`attach`.
    tracer = NULL_TRACER

    def __init__(self, chip: FlashChip, config: IplConfig | None = None) -> None:
        self.chip = chip
        self.config = config or IplConfig()
        self.stats = DeviceStats()
        geo = chip.geometry
        usable = chip.usable_pages_in_block()
        if len(usable) != geo.pages_per_block or not all(
            chip.rules.page_appendable(p) for p in usable
        ):
            raise ValueError(
                "IPL needs every page usable and sector-appendable; run the "
                f"chip in SLC mode (got {chip.mode.value})"
            )
        if self.config.log_pages_per_block >= geo.pages_per_block:
            raise ValueError("log region swallows the whole block")
        self.data_pages_per_block = geo.pages_per_block - self.config.log_pages_per_block
        n_logical = geo.blocks - SPARE_BLOCKS
        if n_logical < 1:
            raise ValueError("no logical blocks left after spares")
        self._blocks = [_BlockState(logical=i, phys=i) for i in range(n_logical)]
        self._spares = list(range(n_logical, geo.blocks))
        self._sectors_per_log_page = geo.page_size // self.config.sector_size
        self._max_sectors = (
            self.config.log_pages_per_block * self._sectors_per_log_page
        )

    @property
    def logical_pages(self) -> int:
        """Addressable logical pages (fixed home slots)."""
        return len(self._blocks) * self.data_pages_per_block

    @property
    def free_blocks(self) -> int:
        """Spare blocks left for merge destinations."""
        return len(self._spares)

    def attach(
        self,
        tracer: Tracer | NullTracer,
        ledger: WriteLedger,
        lifetimes: LifetimeTracker,
    ) -> None:
        """Observers onto this store and its chip (fixed homes: no block
        manager, so no LBA lifetimes)."""
        self.tracer = tracer
        self.chip.attach(tracer, ledger)

    @property
    def page_size(self) -> int:
        return self.chip.geometry.page_size

    def _locate(self, lba: int) -> tuple[_BlockState, int]:
        if not 0 <= lba < self.logical_pages:
            raise KeyError(f"lba {lba} out of range")
        block = self._blocks[lba // self.data_pages_per_block]
        return block, lba % self.data_pages_per_block

    def _data_ppn(self, block: _BlockState, data_index: int) -> int:
        return self.chip.geometry.make_ppn(block.phys, data_index)

    def _log_ppn(self, block: _BlockState, sector_index: int) -> tuple[int, int]:
        """(ppn, byte offset) of a log sector slot."""
        page = self.data_pages_per_block + sector_index // self._sectors_per_log_page
        offset = (sector_index % self._sectors_per_log_page) * self.config.sector_size
        return self.chip.geometry.make_ppn(block.phys, page), offset

    # ------------------------------------------------------------------ #
    # Write side (driven by IplPolicy)
    # ------------------------------------------------------------------ #

    def first_write(self, lba: int, image: bytes) -> None:
        """Program a never-written page into its home slot."""
        block, data_index = self._locate(lba)
        if data_index in block.written:
            raise ValueError(f"lba {lba} already written; use log_update")
        self.chip.program_page(self._data_ppn(block, data_index), image)
        block.written.add(data_index)
        self.stats.host_writes += 1
        self.stats.host_bytes_written += len(image)
        self.stats.out_of_place_writes += 1

    def log_update(self, lba: int, pairs: list[tuple[int, int]]) -> None:
        """Append an update log for ``lba`` (buffered per block)."""
        if not pairs:
            return
        block, _ = self._locate(lba)
        cap = self.config.sector_size
        for entry in encode_entries(lba, pairs, cap):
            if len(block.membuf) + len(entry) > cap:
                self._flush_sector(block)
            block.membuf += entry
            self.stats.host_bytes_written += len(entry)

    def flush_log_buffers(self) -> None:
        """Flush every non-empty in-memory log sector (checkpoint)."""
        for block in self._blocks:
            if block.membuf:
                self._flush_sector(block)

    def flush_log_for(self, lba: int) -> None:
        """Flush the block's in-memory log sector (page-eviction rule).

        Lee & Moon persist the log sector when the corresponding data
        page leaves the buffer pool — durability demands it ("IPL writes
        out the update logs either upon the page eviction or fullness of
        [the] in-memory log buffer", our paper's Section 1).  Partially
        filled sectors still consume a whole 512 B log slot, which is the
        structural write overhead IPA's co-located delta-records avoid.
        """
        block, _ = self._locate(lba)
        if block.membuf:
            self._flush_sector(block)

    def _flush_sector(self, block: _BlockState) -> None:
        if not block.membuf:
            return
        if block.used_sectors >= self._max_sectors:
            self._merge(block)
            # Merge consumed the in-memory buffer; nothing left to flush.
            return
        ppn, offset = self._log_ppn(block, block.used_sectors)
        self.chip.partial_program(ppn, offset, bytes(block.membuf))
        block.used_sectors += 1
        block.membuf = bytearray()
        self.stats.host_writes += 1
        self.stats.log_sector_flushes += 1

    # ------------------------------------------------------------------ #
    # Merge (IPL's GC)
    # ------------------------------------------------------------------ #

    def _merge(self, block: _BlockState) -> None:
        """Apply all logs and rewrite the block into a spare."""
        tr = self.tracer
        if not tr.enabled:
            self._merge_inner(block, None)
            return
        with tr.span("gc_erase", kind="ipl_merge", logical=block.logical) as span:
            self._merge_inner(block, span)

    def _merge_inner(self, block: _BlockState, span) -> None:
        if not self._spares:
            raise DeviceFullError("no spare block for IPL merge")
        logs = self._collect_logs(block)
        new_phys = self._spares.pop(0)
        old_phys = block.phys
        migrated = 0
        for data_index in sorted(block.written):
            ppn = self._data_ppn(block, data_index)
            image = bytearray(self.chip.read_page(ppn))
            lba = block.logical * self.data_pages_per_block + data_index
            for offset, value in logs.get(lba, []):
                image[offset] = value
            new_ppn = self.chip.geometry.make_ppn(new_phys, data_index)
            self.chip.program_page(new_ppn, bytes(image))
            self.stats.gc_page_migrations += 1
            migrated += 1
        if span is not None:
            span.set(victim=old_phys, migrated=migrated)
        self.chip.erase_block(old_phys)
        self.stats.gc_erases += 1
        self.stats.merges += 1
        self._spares.append(old_phys)
        block.phys = new_phys
        block.used_sectors = 0
        block.membuf = bytearray()

    def _collect_logs(self, block: _BlockState) -> dict[int, list[tuple[int, int]]]:
        """All log pairs of a block, flushed + in-memory, in order."""
        logs: dict[int, list[tuple[int, int]]] = {}
        read_pages: dict[int, bytes] = {}
        for sector_index in range(block.used_sectors):
            ppn, offset = self._log_ppn(block, sector_index)
            if ppn not in read_pages:
                read_pages[ppn] = self.chip.read_page(ppn)
                self.stats.log_page_reads += 1
            sector = read_pages[ppn][offset : offset + self.config.sector_size]
            for lba, pairs in decode_entries(sector):
                logs.setdefault(lba, []).extend(pairs)
        for lba, pairs in decode_entries(bytes(block.membuf)):
            logs.setdefault(lba, []).extend(pairs)
        return logs

    # ------------------------------------------------------------------ #
    # Read side (FlashBackend protocol)
    # ------------------------------------------------------------------ #

    def read_page(self, lba: int) -> bytes:
        """Reconstruct the logical page: data page + every written log page.

        This is IPL's structural read overhead: the log pages must be
        read even when they contain no entries for this particular LBA.
        """
        block, data_index = self._locate(lba)
        if data_index not in block.written:
            raise KeyError(f"read of unwritten lba {lba}")
        image = bytearray(self.chip.read_page(self._data_ppn(block, data_index)))
        self.stats.host_reads += 1
        self.stats.host_bytes_read += len(image)
        # Read the used log pages of the block.
        log_pages_used = -(-block.used_sectors // self._sectors_per_log_page)
        pairs: list[tuple[int, int]] = []
        for log_page in range(log_pages_used):
            first_sector = log_page * self._sectors_per_log_page
            ppn, _ = self._log_ppn(block, first_sector)
            page_bytes = self.chip.read_page(ppn)
            self.stats.host_reads += 1
            self.stats.log_page_reads += 1
            sectors_here = min(
                self._sectors_per_log_page,
                block.used_sectors - first_sector,
            )
            for s in range(sectors_here):
                off = s * self.config.sector_size
                sector = page_bytes[off : off + self.config.sector_size]
                for entry_lba, entry_pairs in decode_entries(sector):
                    if entry_lba == lba:
                        pairs.extend(entry_pairs)
        for entry_lba, entry_pairs in decode_entries(bytes(block.membuf)):
            if entry_lba == lba:
                pairs.extend(entry_pairs)
        for offset, value in pairs:
            image[offset] = value
        return bytes(image)

    def write_page(self, lba: int, data: bytes) -> None:
        """Generic write: first write programs, later writes become logs."""
        block, data_index = self._locate(lba)
        if data_index not in block.written:
            self.first_write(lba, data)
            return
        current = self.read_page(lba)
        self.log_update(lba, diff_pairs(current, data))

    def write_delta(self, lba: int, offset: int, payload: bytes) -> bool:
        """IPL has no write_delta command."""
        return False

    def trim(self, lba: int) -> None:
        """Counted only: IPL homes are fixed; space returns at merge time.

        Raises:
            KeyError: ``lba`` outside the logical range, as on a write.
        """
        self._locate(lba)
        self.stats.trims += 1


class IplPolicy(WritePolicy):
    """Eviction policy: ship the page's byte diff as IPL log entries.

    The diff comes from the frame's remembered Flash image, exactly the
    information Lee & Moon's buffer-manager integration has on hand.
    Run it with ``scheme=IPA_DISABLED`` — IPL pages have no delta area.
    """

    name = "ipl"

    def flush(self, manager: StorageManager, frame: Frame) -> None:
        store = manager.device
        if not isinstance(store, IplStore):
            raise TypeError("IplPolicy requires an IplStore device")
        page = frame.page
        page.store_checksum()
        image = page.to_bytes()
        if frame.flash_image is None:
            store.first_write(frame.lba, image)
            manager.stats.oop_flushes += 1
        else:
            pairs = diff_pairs(frame.flash_image, image)
            if pairs:
                store.log_update(frame.lba, pairs)
                store.flush_log_for(frame.lba)  # eviction => durable log
                manager.stats.ipa_flushes += 1  # "logged" flush
                manager.stats.delta_bytes_written += len(pairs) * _PAIR
        frame.flash_image = image
        frame.flash_delta_count = 0
        frame.tracker.reset_after_flush(0)
