"""Operating modes of the simulated chip: SLC, MLC, pSLC, odd-MLC.

Section 3 of the paper ("Flash types and program interference") defines how
In-Place Appends can be applied safely on each Flash type:

* **SLC** — one bit per cell; IPA applies to every page with no caveats.
* **MLC** — two bits per cell; naive IPA on any page risks program
  interference because threshold-voltage windows are narrow.
* **pSLC** (pseudo-SLC) — MLC silicon using only the LSB page of each
  wordline: capacity is halved, interference tolerance becomes SLC-like,
  IPA applies to every *usable* page.
* **odd-MLC** — full MLC capacity; IPA is applied only to LSB pages
  ("odd numbered" in the paper's counting), MSB pages are always written
  out-of-place.

The mode object answers three questions the chip and the FTLs ask:
which pages exist, which pages may be reprogrammed, and how error-prone a
reprogram is (consumed by :mod:`repro.flash.interference`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class FlashMode(enum.Enum):
    """Chip operating mode (paper Section 3)."""

    SLC = "slc"
    MLC = "mlc"
    PSLC = "pslc"
    ODD_MLC = "odd-mlc"

    @property
    def is_mlc_silicon(self) -> bool:
        """True for modes running on two-bit-per-cell silicon."""
        return self in (FlashMode.MLC, FlashMode.PSLC, FlashMode.ODD_MLC)


@dataclass(frozen=True)
class ModeRules:
    """Mode-derived predicates used by the chip.

    Attributes:
        mode: The mode these rules describe.
        capacity_factor: Fraction of raw pages usable (pSLC halves it).
        disturb_rate_reprogram: Probability per *bit* of a neighbouring
            programmed page being disturbed by one reprogram operation.
        disturb_rate_program: Same for a first program (lower — ISPP with
            inhibit is gentler than re-raising cells next to stored data).

    Raises:
        ValueError: a disturb rate outside ``[0, 0.5]``.
    """

    mode: FlashMode
    capacity_factor: float
    disturb_rate_reprogram: float
    disturb_rate_program: float

    def __post_init__(self) -> None:
        for name in ("disturb_rate_reprogram", "disturb_rate_program"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 0.5:
                raise ValueError(
                    f"{self.mode.value} mode: {name} {rate!r} is not a "
                    f"per-bit probability in [0, 0.5]"
                )

    def page_usable(self, page_in_block: int) -> bool:
        """May this page hold data at all in this mode?"""
        if self.mode is FlashMode.PSLC:
            return _is_lsb(page_in_block)
        return True

    def page_appendable(self, page_in_block: int) -> bool:
        """May this page be reprogrammed in place (IPA target)?"""
        if self.mode in (FlashMode.SLC, FlashMode.MLC):
            # SLC: always.  MLC: physically attemptable everywhere — the
            # interference model is what punishes it (experiment E8).
            return True
        if self.mode is FlashMode.PSLC:
            return _is_lsb(page_in_block)
        # odd-MLC: only LSB pages.
        return _is_lsb(page_in_block)

    def page_is_lsb(self, page_in_block: int) -> bool:
        """True if the page is the LSB page of its wordline."""
        if not self.mode.is_mlc_silicon:
            return True
        return _is_lsb(page_in_block)

    def paired_page(self, page_in_block: int) -> int | None:
        """The other page sharing this page's wordline (MLC silicon only)."""
        if not self.mode.is_mlc_silicon:
            return None
        return page_in_block + 1 if _is_lsb(page_in_block) else page_in_block - 1


def _is_lsb(page_in_block: int) -> bool:
    """LSB/MSB interleave: even page indexes are LSB pages.

    Real MLC parts interleave LSB/MSB pages with chip-specific offsets; the
    simple even/odd pairing preserves the property the paper relies on —
    exactly half the pages are LSB pages, and each LSB page has one MSB
    partner on the same wordline.
    """
    return page_in_block % 2 == 0


#: Disturb rates per bit per operation.  SLC-like modes have threshold
#: windows wide enough that interference is practically absorbed; full MLC
#: reprograms sit well above what ECC can absorb over many appends, which is
#: the paper's reason for pSLC/odd-MLC (Section 3).
_RULES: dict[FlashMode, ModeRules] = {
    FlashMode.SLC: ModeRules(
        mode=FlashMode.SLC,
        capacity_factor=1.0,
        disturb_rate_reprogram=1e-9,
        disturb_rate_program=1e-10,
    ),
    FlashMode.MLC: ModeRules(
        mode=FlashMode.MLC,
        capacity_factor=1.0,
        disturb_rate_reprogram=4e-5,
        disturb_rate_program=1e-7,
    ),
    FlashMode.PSLC: ModeRules(
        mode=FlashMode.PSLC,
        capacity_factor=0.5,
        disturb_rate_reprogram=2e-9,
        disturb_rate_program=2e-10,
    ),
    FlashMode.ODD_MLC: ModeRules(
        mode=FlashMode.ODD_MLC,
        capacity_factor=1.0,
        disturb_rate_reprogram=8e-8,
        disturb_rate_program=1e-7,
    ),
}


def rules_for(mode: FlashMode) -> ModeRules:
    """Look up the :class:`ModeRules` for a mode."""
    return _RULES[mode]
