"""A conventional black-box SSD: page-level mapping, all writes out-of-place.

This is the paper's baseline (Demo-Scenario 1, the [0x0] column of
Table 1): every host page write lands in a fresh physical page and
invalidates the previous one; greedy GC migrates and erases behind the
host's back.  The on-device write-amplification that GC generates is the
"major performance bottleneck" [4] IPA attacks.
"""

from __future__ import annotations

from repro.flash.chip import FlashChip
from repro.flash.stats import DeviceStats
from repro.ftl.gc import BlockManager
from repro.obs.ledger import LifetimeTracker, WriteLedger
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer


class PageMappingFtl:
    """Conventional SSD with a page-granular mapping table.

    Args:
        chip: The NAND chip (any mode; pSLC halves logical capacity).
        over_provisioning: Usable-page fraction withheld for GC headroom.
    """

    #: Observability: replaced per-instance by :meth:`attach`.
    tracer = NULL_TRACER

    def __init__(
        self,
        chip: FlashChip,
        over_provisioning: float = 0.10,
        wear_leveling_gap: int | None = None,
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
            wear_leveling_gap=wear_leveling_gap,
            background_gc=background_gc,
            gc_migration_budget=gc_migration_budget,
        )

    @property
    def logical_pages(self) -> int:
        """LBAs the host may address (physical minus over-provisioning)."""
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
        """Bytes per logical page (equals the physical page size)."""
        return self.chip.geometry.page_size

    def read_page(self, lba: int) -> bytes:
        """Read one logical page (raises KeyError if never written)."""
        ppn = self._blocks.ppn_of(lba)
        if ppn is None:
            raise KeyError(f"read of unwritten lba {lba}")
        data = self.chip.read_page(ppn)
        self.stats.host_reads += 1
        self.stats.host_bytes_read += len(data)
        return data

    def write_page(self, lba: int, data: bytes) -> None:
        """Out-of-place write (always, for the conventional device)."""
        tr = self.tracer
        if not tr.enabled:
            self._write_page_inner(lba, data)
            return
        with tr.span("ftl_write", lba=lba, in_place=False):
            self._write_page_inner(lba, data)

    def _write_page_inner(self, lba: int, data: bytes) -> bool:
        """Returns True when the write landed in place (never, here)."""
        self._blocks.write(lba, data)
        # Counted once it has landed: a refused write is not a host write.
        stats = self.stats
        stats.host_writes += 1
        stats.host_bytes_written += len(data)
        stats.out_of_place_writes += 1
        return False

    def write_delta(self, lba: int, offset: int, payload: bytes) -> bool:
        """Unsupported on a block-device interface: always False."""
        return False

    def rebuild_from_media(self) -> None:
        """Remount: rebuild the mapping table from the chip's OOB metadata."""
        self._blocks.rebuild_from_media()

    def trim(self, lba: int) -> None:
        """Invalidate a dead logical page (no rewrite)."""
        self._blocks.trim(lba)
