"""A conventional black-box SSD: page-level mapping, all writes out-of-place.

This is the paper's baseline (Demo-Scenario 1, the [0x0] column of
Table 1): every host page write lands in a fresh physical page and
invalidates the previous one; greedy GC migrates and erases behind the
host's back.  The on-device write-amplification that GC generates is the
"major performance bottleneck" [4] IPA attacks.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.flash.batch import OpBatch
from repro.flash.chip import FlashChip
from repro.flash.stats import DeviceStats
from repro.ftl.gc import BlockManager
from repro.obs.ledger import NULL_LEDGER
from repro.obs.trace import NULL_TRACER


class PageMappingFtl:
    """Conventional SSD with a page-granular mapping table.

    Args:
        chip: The NAND chip (any mode; pSLC halves logical capacity).
        over_provisioning: Usable-page fraction withheld for GC headroom.
        gc_spare_blocks: Free-block low watermark triggering GC.
    """

    #: Observability: replaced per-instance by ``repro.obs.attach_tracer``
    #: / ``repro.obs.ledger.attach_ledger``.
    tracer = NULL_TRACER
    ledger = NULL_LEDGER

    def __init__(
        self,
        chip: FlashChip,
        over_provisioning: float = 0.10,
        gc_spare_blocks: int = 2,
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
            gc_spare_blocks=gc_spare_blocks,
            wear_leveling_gap=wear_leveling_gap,
            background_gc=background_gc,
            gc_migration_budget=gc_migration_budget,
        )

    @property
    def logical_pages(self) -> int:
        """LBAs the host may address (physical minus over-provisioning)."""
        return self._blocks.logical_pages

    @property
    def page_size(self) -> int:
        """Bytes per logical page (equals the physical page size)."""
        return self.chip.geometry.page_size

    def is_mapped(self, lba: int) -> bool:
        """True once the LBA has been written at least once."""
        return self._blocks.ppn_of(lba) is not None

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

    def _write_page_inner(self, lba: int, data: bytes) -> None:
        self._blocks.write(lba, data)
        # Counted once it has landed: a refused write is not a host write.
        stats = self.stats
        stats.host_writes += 1
        stats.host_bytes_written += len(data)
        stats.out_of_place_writes += 1

    def read_many(self, lbas: Sequence[int]) -> list[bytes]:
        """Read a run of logical pages in one call.

        Semantically identical to ``[self.read_page(lba) for lba in
        lbas]`` — same mapping lookups, same ``KeyError`` at the first
        unwritten LBA (reads before it still happen and are charged),
        same clock/stats/ECC outcomes — but the resolved physical reads
        execute as one :meth:`FlashChip.execute_batch` call.  ``lbas``
        may be any integer sequence, including a numpy array.

        Optional batch extension: not part of the
        :class:`~repro.ftl.interface.FlashBackend` Protocol (callers
        feature-detect with ``hasattr``).
        """
        batch = OpBatch()
        ppn_of = self._blocks.ppn_of
        unwritten: int | None = None
        for lba in lbas:
            ppn = ppn_of(lba)
            if ppn is None:
                unwritten = lba  # per-op order: earlier reads still run
                break
            batch.read(ppn)
        out: list[bytes] = []
        if len(batch):
            stats = self.stats
            try:
                out = self.chip.execute_batch(batch)
            except Exception as exc:
                done = getattr(exc, "batch_results", [])
                stats.host_reads += len(done)
                stats.host_bytes_read += sum(len(d) for d in done)
                raise
            stats.host_reads += len(out)
            stats.host_bytes_read += sum(len(d) for d in out)
        if unwritten is not None:
            raise KeyError(f"read of unwritten lba {unwritten}")
        return out

    def write_many(self, items: Iterable[tuple[int, bytes]]) -> None:
        """Write a run of ``(lba, data)`` pairs in one call.

        Placement is stateful per write — each write can invalidate a
        page, trigger GC, and move the allocation frontier — so the
        writes execute sequentially under the hood; the batch call
        amortizes the host-side dispatch of an eviction run.  Optional
        batch extension (see :meth:`read_many`).
        """
        if self.tracer.enabled:
            for lba, data in items:
                self.write_page(lba, data)
            return
        inner = self._write_page_inner
        for lba, data in items:
            inner(lba, data)

    def write_delta(self, lba: int, offset: int, payload: bytes) -> bool:
        """Unsupported on a block-device interface: always False."""
        return False

    def rebuild_from_media(self) -> None:
        """Remount: rebuild the mapping table from the chip's OOB metadata."""
        self._blocks.rebuild_from_media()

    def trim(self, lba: int) -> None:
        """Invalidate a dead logical page (no rewrite)."""
        self._blocks.trim(lba)
