"""IPA for conventional SSDs (Demo-Scenario 2).

The DBMS still talks a plain block-device protocol and writes *whole*
pages in the format ``page body + delta-record area``.  The IPA-aware
device compares the incoming image against the page's current physical
content (a device-internal read — no host bus traffic): if every bit
transition only clears bits (``new & old == new``) *and* the chip's mode
permits reprogramming the physical page, the device programs the image
in place.  No page is invalidated, so no GC debt accrues.

Anything else — a legality violation, an unmapped LBA, a mode
restriction (odd-MLC MSB page) — silently falls back to the conventional
out-of-place path, which makes the device a drop-in replacement.
"""

from __future__ import annotations

from repro.flash.cellmodel import slc_transition_legal
from repro.flash.chip import FlashChip
from repro.flash.stats import DeviceStats
from repro.ftl.gc import BlockManager
from repro.obs.ledger import LifetimeTracker, WriteLedger
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer


class IpaFtl:
    """Conventional block interface with device-side in-place detection.

    Args:
        chip: NAND chip; run it in PSLC or ODD_MLC mode per the paper's
            MLC safety configurations.
        over_provisioning: As for the conventional FTL.
        gc_spare_blocks: As for the conventional FTL.
    """

    #: Observability: replaced per-instance by :meth:`attach`.
    tracer = NULL_TRACER

    def __init__(
        self,
        chip: FlashChip,
        over_provisioning: float = 0.10,
        gc_spare_blocks: int = 2,
        background_gc: bool = False,
        gc_migration_budget: int = 8,
    ) -> None:
        self.chip = chip
        self.stats = DeviceStats()
        self._blocks = BlockManager(
            chip,
            list(range(chip.geometry.blocks)),
            self.stats,
            over_provisioning=over_provisioning,
            gc_spare_blocks=gc_spare_blocks,
            background_gc=background_gc,
            gc_migration_budget=gc_migration_budget,
        )

    @property
    def logical_pages(self) -> int:
        """LBAs the host may address."""
        return self._blocks.logical_pages

    @property
    def free_blocks(self) -> int:
        """Erased blocks ready for allocation."""
        return self._blocks.free_block_count

    def attach(
        self,
        tracer: Tracer | NullTracer,
        ledger: WriteLedger,
        lifetimes: LifetimeTracker,
    ) -> None:
        """Observers onto this FTL, its block manager and its chip."""
        self.tracer = tracer
        self._blocks.attach(tracer, ledger, lifetimes)
        self.chip.attach(tracer, ledger)

    @property
    def page_size(self) -> int:
        """Bytes per logical page."""
        return self.chip.geometry.page_size

    def is_mapped(self, lba: int) -> bool:
        """True once the LBA has been written at least once."""
        return self._blocks.ppn_of(lba) is not None

    def read_page(self, lba: int) -> bytes:
        """Read one logical page."""
        ppn = self._blocks.ppn_of(lba)
        if ppn is None:
            raise KeyError(f"read of unwritten lba {lba}")
        data = self.chip.read_page(ppn)
        self.stats.host_reads += 1
        self.stats.host_bytes_read += len(data)
        return data

    def write_page(self, lba: int, data: bytes) -> None:
        """Write a page; reprogram in place when physically possible."""
        tr = self.tracer
        if not tr.enabled:
            self._write_page_inner(lba, data)
            return
        with tr.span("ftl_write", lba=lba) as span:
            span.set(in_place=self._write_page_inner(lba, data))

    def _write_page_inner(self, lba: int, data: bytes) -> bool:
        """Returns True when the write landed in place (no invalidation)."""
        blocks = self._blocks
        # Before the compare read: a refused write costs nothing.
        blocks.check_write(lba, data)
        ppn = blocks.ppn_of(lba)
        in_place = ppn is not None and self._try_in_place(ppn, data)
        stats = self.stats
        if in_place:
            stats.in_place_appends += 1
        else:
            blocks.write(lba, data)
            stats.out_of_place_writes += 1
        # Counted once it has landed: a refused write is not a host write.
        stats.host_writes += 1
        stats.host_bytes_written += len(data)
        return in_place

    def _try_in_place(self, ppn: int, data: bytes) -> bool:
        """Device-internal compare + reprogram; False if not applicable."""
        _block, page_offset = self.chip.geometry.split_ppn(ppn)
        if not self.chip.rules.page_appendable(page_offset):
            return False
        # Internal compare read: array sense only, no host transfer.  The
        # legality probe runs against the page's stable buffer view — no
        # full-page copy on this per-host-write path.
        self.chip.clock.advance(self.chip.latency.read_us, "read")
        page = self.chip.page_at(ppn)
        size = page.page_size
        image = data if len(data) == size else (
            data + b"\xff" * (size - len(data))
        )
        if not slc_transition_legal(page.data_view(), image):
            return False
        self.chip.reprogram_page(ppn, image)
        return True

    def write_delta(self, lba: int, offset: int, payload: bytes) -> bool:
        """Not part of the block-device protocol: always False."""
        return False

    def rebuild_from_media(self) -> None:
        """Remount: rebuild the mapping table from the chip's OOB metadata.

        In-place reprograms never rewrite the OOB, so a page's mapping
        record (written by its original out-of-place program) stays valid
        across any number of IPA overwrites.
        """
        self._blocks.rebuild_from_media()

    def trim(self, lba: int) -> None:
        """Invalidate a dead logical page."""
        self._blocks.trim(lba)
