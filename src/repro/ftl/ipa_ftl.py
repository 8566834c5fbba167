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
out-of-place path, which makes the device a drop-in replacement.  Only
the write path differs from :class:`PageMappingFtl`: mapping, GC, reads
and remount are the conventional device's.  In-place reprograms never
rewrite the OOB, so a page's mapping record (written by its original
out-of-place program) stays valid across any number of IPA overwrites.
"""

from __future__ import annotations

from repro.flash.cellmodel import slc_transition_legal
from repro.ftl.page_mapping import PageMappingFtl


class IpaFtl(PageMappingFtl):
    """Conventional block interface with device-side in-place detection.

    Constructed like :class:`PageMappingFtl`; run the chip in PSLC or
    ODD_MLC mode per the paper's MLC safety configurations.
    """

    def write_page(self, lba: int, data: bytes) -> None:
        """Write a page; reprogram in place when physically possible."""
        tr = self.tracer
        if not tr.enabled:
            self._write_page_inner(lba, data)
            return
        with tr.span("ftl_write", lba=lba) as span:
            span.set(in_place=self._write_page_inner(lba, data))

    def _write_page_inner(
        self, lba: int, data: bytes, oob: bytes | None = None
    ) -> bool:
        """Returns True when the write landed in place (no invalidation)."""
        # Before the compare read: a refused write costs nothing.
        self._check_write(lba, data, oob)
        ppn = self.mapping.get(lba)
        if ppn is None or not self._try_in_place(ppn, data):
            return PageMappingFtl._write_page_inner(
                self, lba, data, oob, checked=True
            )
        stats = self.stats
        stats.in_place_appends += 1
        # Counted once it has landed: a refused write is not a host write.
        stats.host_writes += 1
        stats.host_bytes_written += len(data)
        return True

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
