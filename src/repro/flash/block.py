"""One erase unit: a vector of pages plus wear bookkeeping.

An erased block costs a few pointers per page: every erased page
references the shared erased images and the shared all-zero disturb
array of :mod:`repro.flash.page`, and an erase points its pages back at
them, dropping whatever private buffers the programs gave them.
"""

from __future__ import annotations

from repro.flash.ecc import EccConfig
from repro.flash.errors import BadBlockError
from repro.flash.page import PageState, PhysicalPage, erased_image, undisturbed


class EraseBlock:
    """A NAND erase block: the granularity of the erase operation.

    Wear accounting lives here because endurance is specified in block
    program/erase cycles; the longevity analysis (doubling-the-lifetime
    claim) reads ``erase_count`` off every block.
    """

    __slots__ = (
        "pages", "erase_count", "endurance_limit", "is_bad",
        "_erased_data", "_erased_oob", "_undisturbed",
    )

    def __init__(
        self,
        pages_per_block: int,
        page_size: int,
        oob_size: int,
        ecc: EccConfig,
        endurance_limit: int | None = None,
    ) -> None:
        self.pages = [
            PhysicalPage(page_size, oob_size, ecc) for _ in range(pages_per_block)
        ]
        self.erase_count = 0
        #: P/E cycles before the block is retired; ``None`` disables the
        #: check (experiments measure longevity analytically instead of
        #: running chips to death).
        self.endurance_limit = endurance_limit
        self.is_bad = False
        self._erased_data = erased_image(page_size)
        self._erased_oob = erased_image(oob_size)
        self._undisturbed = undisturbed(ecc.codewords_for(page_size))

    def erase(self) -> None:
        """Erase every page and advance the wear counter.

        Each page is re-pointed at the shared erased images (two stores,
        no copy) and, only if it has any disturb, at the shared all-zero
        counts.

        Raises:
            BadBlockError: if the block was already retired, or this erase
                pushes it past its endurance limit.
        """
        if self.is_bad:
            raise BadBlockError("erase of retired block")
        self.erase_count += 1
        if self.endurance_limit is not None and self.erase_count > self.endurance_limit:
            self.is_bad = True
            raise BadBlockError(
                f"block exceeded endurance of {self.endurance_limit} P/E cycles"
            )
        data = self._erased_data
        oob = self._erased_oob
        erased = PageState.ERASED
        for page in self.pages:
            page._data = data  # type: ignore[assignment]
            page._oob = oob  # type: ignore[assignment]
            page.state = erased
            page.program_passes = 0
            if page._disturb_total:
                # counts are non-negative, so total == 0 implies all-zero.
                page._disturb = self._undisturbed
                page._disturb_total = 0
                page._disturb_worst = 0
