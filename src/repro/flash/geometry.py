"""Chip geometry: how pages, blocks and the OOB area are laid out.

The geometry is pure arithmetic — no state — so it is shared freely between
the chip, the FTLs and the storage manager.  The default preset mirrors the
OpenSSD Jasmine module used in the paper (Samsung K9LCG08U1M: 4096 erase
units of 128 16 KB pages, 128-byte OOB region referenced in Figure 3);
experiments size their chips from the workload by default.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.flash.errors import IllegalAddressError


@dataclass(frozen=True)
class FlashGeometry:
    """Physical dimensions of one simulated NAND chip.

    Attributes:
        page_size: Data bytes per physical page.
        oob_size: Out-of-band (spare) bytes per page, used for ECC slots.
        pages_per_block: Pages per erase unit.
        blocks: Number of erase units on the chip.
    """

    page_size: int = 8192
    oob_size: int = 128
    pages_per_block: int = 64
    blocks: int = 256

    def __post_init__(self) -> None:
        if self.page_size <= 0 or self.oob_size < 0:
            raise ValueError("page_size must be positive, oob_size non-negative")
        if self.pages_per_block <= 0 or self.blocks <= 0:
            raise ValueError("pages_per_block and blocks must be positive")

    @property
    def total_pages(self) -> int:
        """Total number of physical pages on the chip."""
        return self.pages_per_block * self.blocks

    @property
    def capacity_bytes(self) -> int:
        """Raw data capacity (excluding OOB) in bytes."""
        return self.total_pages * self.page_size

    def split_ppn(self, ppn: int) -> tuple[int, int]:
        """Split a physical page number into (block index, page-in-block)."""
        self.check_ppn(ppn)
        return divmod(ppn, self.pages_per_block)

    def make_ppn(self, block: int, page: int) -> int:
        """Compose a physical page number from block and page-in-block."""
        if not 0 <= block < self.blocks:
            raise IllegalAddressError(f"block {block} out of range [0, {self.blocks})")
        if not 0 <= page < self.pages_per_block:
            raise IllegalAddressError(
                f"page {page} out of range [0, {self.pages_per_block})"
            )
        return block * self.pages_per_block + page

    def check_ppn(self, ppn: int) -> None:
        """Raise :class:`IllegalAddressError` unless ``ppn`` is on-chip."""
        if not 0 <= ppn < self.total_pages:
            raise IllegalAddressError(
                f"ppn {ppn} out of range [0, {self.total_pages})"
            )

    def check_block(self, block: int) -> None:
        """Raise :class:`IllegalAddressError` unless ``block`` is on-chip."""
        if not 0 <= block < self.blocks:
            raise IllegalAddressError(f"block {block} out of range [0, {self.blocks})")


#: Geometry of one OpenSSD Jasmine Flash module as described in the paper's
#: footnote 3 (4096 erase units x 128 pages x 16 KB, 128 B OOB).  Full size:
#: a chip of it costs what its programmed pages hold (see
#: :mod:`repro.flash.page`), so a whole-board run fits in under 100 MiB —
#: ``docs/performance.md`` has the command.  The experiments' default
#: chips are smaller, sized from the workload.
OPENSSD_JASMINE = FlashGeometry(
    page_size=16384,
    oob_size=128,
    pages_per_block=128,
    blocks=4096,
)


def scaled_jasmine(blocks: int = 256, page_size: int = 8192) -> FlashGeometry:
    """A laptop-scale chip with Jasmine-like proportions.

    Args:
        blocks: Number of erase units (default 256 => 128 MB at 8 KB pages).
        page_size: Page size in bytes; the paper's DB pages are 8 KB.
    """
    return FlashGeometry(
        page_size=page_size,
        oob_size=128,
        pages_per_block=64,
        blocks=blocks,
    )
