"""NoFTL: native Flash under DBMS control, with regions and write_delta.

The paper implements IPA inside the NoFTL architecture [6]: the DBMS sees
the Flash directly (no device-side mapping duplication) and partitions it
into **regions** [7], each with its own configuration.  IPA is enabled
per region, so it applies "selectively, only to certain database objects
that are dominated by small-sized updates" (Section 3).

The defining command of Demo-Scenario 3 is::

    write_delta(LBA, offset, delta_length, delta_bytes[])

Only the delta-record bytes cross the host interface; the device appends
them to the physical page already holding the LBA (a partial reprogram)
and writes the delta's ECC into the page's next free OOB slot (Figure 3).
"""

from __future__ import annotations

from typing import Any

from repro.core.config import IPA_DISABLED, IpaScheme
from repro.flash.chip import FlashChip
from repro.flash.ecc import ECC_SLOT_SIZE, OobLayout, crc_slot
from repro.flash.errors import (
    IllegalProgramError,
    ModeViolationError,
    OobOverflowError,
)
from repro.flash.stats import DeviceStats
from repro.ftl.oob_meta import OOB_META_SIZE
from repro.ftl.page_mapping import PageMappingFtl
from repro.obs.export import render_table
from repro.obs.ledger import LifetimeTracker, WriteLedger
from repro.obs.trace import NullTracer, Tracer


class Region(PageMappingFtl):
    """A contiguous group of erase blocks with one configuration: the
    page-mapping FTL over its block slice, serving device LBAs
    ``[lba_base, lba_end)``, plus the ``write_delta`` command.

    Not constructed directly — use :meth:`NoFtlDevice.create_region`.

    Args:
        name: Region label (diagnostics and error messages).
        chip: The device's shared chip.
        lba_base: First device LBA of the region.
        scheme: The region's N x M scheme; IPA_DISABLED for a plain
            region, whose write_delta always refuses.
        options: As for :class:`PageMappingFtl` (``block_ids`` names the
            region's blocks).
    """

    def __init__(
        self,
        name: str,
        chip: FlashChip,
        lba_base: int,
        scheme: IpaScheme,
        **options: Any,
    ) -> None:
        super().__init__(chip, **options)
        self.name = name
        self._where = f" (region {name})"
        self.scheme = scheme
        #: The region's slice ``[lba_base, lba_end)`` of the device
        #: address space: fixed once built.
        self.lba_base = lba_base
        self.lba_end = lba_base + self.logical_pages
        self._oob_layout: OobLayout | None = None
        if scheme.enabled:
            oob_size = chip.geometry.oob_size
            self._oob_layout = OobLayout(oob_size, scheme.n_records)
            slots_end = (1 + scheme.n_records) * ECC_SLOT_SIZE
            if oob_size >= OOB_META_SIZE and slots_end > oob_size - OOB_META_SIZE:
                raise OobOverflowError(
                    f"OOB of {oob_size} B cannot hold 1+{scheme.n_records} ECC "
                    f"slots plus the {OOB_META_SIZE} B mapping record"
                )

    def attach(
        self,
        tracer: Tracer | NullTracer,
        ledger: WriteLedger,
        lifetimes: LifetimeTracker,
    ) -> None:
        """Observers onto this region; the device attaches the shared chip."""
        self.tracer = tracer
        self.ledger = ledger
        self.lifetimes = lifetimes

    def write_page(self, lba: int, data: bytes) -> None:
        tr = self.tracer
        if not tr.enabled:
            self._write_page_inner(lba, data)
            return
        with tr.span("ftl_write", lba=lba, region=self.name):
            self._write_page_inner(lba, data)

    def _write_page_inner(
        self, lba: int, data: bytes, oob: bytes | None = None
    ) -> bool:
        if self._oob_layout is not None:
            # Fresh page image: program slot 0 (initial-data ECC) now;
            # delta slots stay erased for future write_delta calls.
            oob_buf = bytearray(b"\xff" * self.chip.geometry.oob_size)
            self._oob_layout.write_slot(oob_buf, 0, crc_slot(data))
            oob = bytes(oob_buf)
        return PageMappingFtl._write_page_inner(self, lba, data, oob)

    def write_delta(self, lba: int, offset: int, payload: bytes) -> bool:
        """The paper's command: append a delta-record to the page in place.

        Returns False (caller falls back to :meth:`write_page`) when the
        region has IPA disabled, the payload exceeds the configured
        M-byte record size, the LBA is unmapped, the physical page's
        mode forbids reprogramming, all N OOB slots are used, or the
        append region is not erased.
        """
        if self._oob_layout is None:
            return False
        # The device-side image of one delta-record (Figure 3) is
        # scheme.record_size bytes: the region's M contract.
        scheme = self.scheme
        if len(payload) > scheme.record_size:
            return False
        ppn = self.mapping.get(lba - self.lba_base)
        if ppn is None:
            return False
        used = self.appends_done.get(ppn, 0)
        if used >= scheme.n_records:
            return False
        slot_start, _end = self._oob_layout.slot_span(used + 1)
        try:
            self.chip.partial_program(
                ppn,
                offset,
                payload,
                oob_offset=slot_start,
                oob_payload=crc_slot(payload),
            )
        except (IllegalProgramError, ModeViolationError):
            return False
        self.appends_done[ppn] = used + 1
        sz = self.sanitizer
        if sz.enabled:
            sz.check_delta_slots(
                self.chip.page_at(ppn), self._oob_layout, used + 1
            )
        self.stats.host_delta_writes += 1
        # The OOB CRC slot crosses the host interface too (the DBMS ships
        # it with the delta in the write_delta command), so it counts.
        self.stats.host_bytes_written += len(payload) + ECC_SLOT_SIZE
        self.stats.in_place_appends += 1
        tr = self.tracer
        if tr.enabled:
            tr.record(
                "write_delta",
                lba=lba,
                region=self.name,
                nbytes=len(payload),
                slot=used + 1,
            )
        return True

    def rebuild_from_media(self) -> None:
        """Remount: rebuild mapping and delta-slot counts from the chip.

        After the mapping is rebuilt from OOB metadata, every mapped
        page's delta-slot usage is recounted from its OOB ECC slots
        (Figure 3): a partially programmed slot — a torn
        ``write_delta`` — counts as used, so the device never appends
        into a dirty slot.
        """
        super().rebuild_from_media()
        if self._oob_layout is not None:
            for ppn in self.appends_done:
                oob = self.chip.page_at(ppn).raw_oob()
                self.appends_done[ppn] = self._oob_layout.used_delta_slots(oob)

    def appends_on(self, lba: int) -> int:
        """Delta-records appended to the LBA's current physical page."""
        ppn = self.mapping.get(lba - self.lba_base)
        if ppn is None:
            return 0
        return self.appends_done.get(ppn, 0)


class NoFtlDevice:
    """Native-Flash device: a chip partitioned into configured regions.

    Usage::

        device = NoFtlDevice(chip)
        hot = device.create_region("accounts", blocks=48,
                                   ipa=IpaScheme(n_records=2, m_bytes=4))
        cold = device.create_region("history", blocks=16)

    LBAs are assigned contiguously in region-creation order; the device
    routes every call to the owning region.
    """

    def __init__(
        self,
        chip: FlashChip,
        over_provisioning: float = 0.10,
        background_gc: bool = False,
    ) -> None:
        self.chip = chip
        self.regions: list[Region] = []
        self._over_provisioning = over_provisioning
        self._background_gc = background_gc
        self._next_block = 0

    @property
    def stats(self) -> DeviceStats:
        """Device-wide aggregate of every region's counters.

        Regions keep their own :class:`DeviceStats` (see
        :meth:`region_report`); callers that snapshot/diff the device
        stats get a freshly computed aggregate each access.
        """
        return DeviceStats.total(region.stats for region in self.regions)

    def region_report(self) -> str:
        """Per-region counter table (for the demo/diagnostics)."""
        return render_table(
            ["Region", "IPA", "LBAs", "Reads", "Writes", "Deltas",
             "Invalidations", "GC migr", "GC erases"],
            [
                [
                    r.name,
                    str(r.scheme) if r.scheme.enabled else "off",
                    str(r.logical_pages),
                    str(r.stats.host_reads),
                    str(r.stats.host_writes),
                    str(r.stats.host_delta_writes),
                    str(r.stats.page_invalidations),
                    str(r.stats.gc_page_migrations),
                    str(r.stats.gc_erases),
                ]
                for r in self.regions
            ],
            title="NoFTL per-region statistics",
        )

    @property
    def logical_pages(self) -> int:
        """Total LBAs across all regions created so far."""
        return sum(r.logical_pages for r in self.regions)

    @property
    def free_blocks(self) -> int:
        """Erased blocks ready for allocation, summed over the regions
        (GC pressure anywhere hurts)."""
        return sum(r.free_blocks for r in self.regions)

    def attach(
        self,
        tracer: Tracer | NullTracer,
        ledger: WriteLedger,
        lifetimes: LifetimeTracker,
    ) -> None:
        """Observers onto every region and, once, the shared chip."""
        for region in self.regions:
            region.attach(tracer, ledger, lifetimes)
        self.chip.attach(tracer, ledger)

    @property
    def page_size(self) -> int:
        """Bytes per logical page."""
        return self.chip.geometry.page_size

    @property
    def blocks_remaining(self) -> int:
        """Blocks not yet assigned to any region."""
        return self.chip.geometry.blocks - self._next_block

    def create_region(
        self,
        name: str,
        blocks: int,
        ipa: IpaScheme = IPA_DISABLED,
        over_provisioning: float | None = None,
        logical_pages: int | None = None,
    ) -> Region:
        """Carve the next ``blocks`` erase units into a new region.

        Args:
            name: Region label (diagnostics only).
            blocks: Erase units to assign.
            ipa: N x M scheme; IPA_DISABLED (the default) for a plain
                region, whose write_delta always refuses.
            over_provisioning: Per-region override.
            logical_pages: Cap the LBAs this region exposes (lets callers
                align region sizes exactly with file page budgets; the
                surplus physical space becomes extra GC headroom).
        """
        if blocks > self.blocks_remaining:
            raise ValueError(
                f"region '{name}' wants {blocks} blocks, only "
                f"{self.blocks_remaining} remain"
            )
        if over_provisioning is None:
            over_provisioning = self._over_provisioning
        region = Region(
            name,
            self.chip,
            self.logical_pages,
            ipa,
            block_ids=range(self._next_block, self._next_block + blocks),
            over_provisioning=over_provisioning,
            logical_pages=logical_pages,
            background_gc=self._background_gc,
        )
        # Claimed only once the region is built: a refused configuration
        # leaves its blocks to the next request.
        self._next_block += blocks
        self.regions.append(region)
        return region

    def region_of(self, lba: int) -> Region:
        """The region owning ``lba`` (KeyError if out of range)."""
        for region in self.regions:
            if region.lba_base <= lba < region.lba_end:
                return region
        raise KeyError(f"lba {lba} not in any region")

    def read_page(self, lba: int) -> bytes:
        """Read one logical page via its region."""
        return self.region_of(lba).read_page(lba)

    def write_page(self, lba: int, data: bytes) -> None:
        """Out-of-place write via the owning region."""
        self.region_of(lba).write_page(lba, data)

    def write_delta(self, lba: int, offset: int, payload: bytes) -> bool:
        """Route the write_delta command to the owning region."""
        return self.region_of(lba).write_delta(lba, offset, payload)

    def rebuild_from_media(self) -> None:
        """Remount every region's mapping from the surviving chip state."""
        for region in self.regions:
            region.rebuild_from_media()

    def trim(self, lba: int) -> None:
        """Invalidate a dead logical page."""
        self.region_of(lba).trim(lba)
