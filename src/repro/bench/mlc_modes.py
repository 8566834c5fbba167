"""Experiment E8 — Section 3: why pSLC and odd-MLC exist.

Applies an append storm (repeated in-place reprograms) to chips in each
mode and measures program-interference consequences:

* SLC / pSLC — interference negligible, neighbours stay readable;
* odd-MLC — appends confined to LSB pages; modest disturb, ECC absorbs;
* full MLC — appends disturb paired/adjacent pages beyond the ECC
  correction capability: uncorrectable reads appear.  This is the
  failure mode that motivates the two safe configurations.

Also reports each mode's capacity factor and append coverage (which
fraction of pages can take in-place appends at all).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.report import render_table
from repro.flash.chip import FlashChip
from repro.flash.errors import EccUncorrectableError, ModeViolationError
from repro.flash.geometry import FlashGeometry
from repro.flash.modes import FlashMode, rules_for

GEO = FlashGeometry(page_size=4096, oob_size=128, pages_per_block=16, blocks=4)
#: Append-storm length per mode and the chips' disturb seed.
APPENDS = 4000
SEED = 0xF1A5


@dataclass
class ModeRow:
    """Interference outcome of one mode under the append storm."""

    mode: str
    capacity_factor: float
    appendable_fraction: float
    appends_done: int
    corrected_bits: int
    uncorrectable_reads: int
    survived: bool


def run() -> list[ModeRow]:
    """Append storm per mode: program victims, hammer appends, read back."""
    rows = []
    for mode in (FlashMode.SLC, FlashMode.PSLC, FlashMode.ODD_MLC, FlashMode.MLC):
        chip = FlashChip(GEO, mode=mode, seed=SEED)
        rules = rules_for(mode)
        usable = chip.usable_pages_in_block()
        appendable = [p for p in usable if rules.page_appendable(p)]
        # Program every usable page of block 0 as potential victims.
        for page in usable:
            chip.program_page(GEO.make_ppn(0, page), bytes(64))
        target_page = appendable[len(appendable) // 2]
        target = GEO.make_ppn(0, target_page)
        uncorrectable = 0
        done = 0
        offset = 128
        for i in range(APPENDS):
            if offset + 1 >= GEO.page_size:
                break
            try:
                chip.partial_program(target, offset, b"\x00")
                done += 1
            except ModeViolationError:
                break
            offset += 1
            if i % 64 == 0:
                for page in usable:
                    try:
                        chip.read_page(GEO.make_ppn(0, page))
                    except EccUncorrectableError:
                        uncorrectable += 1
        # Final integrity sweep.
        for page in usable:
            try:
                chip.read_page(GEO.make_ppn(0, page))
            except EccUncorrectableError:
                uncorrectable += 1
        rows.append(
            ModeRow(
                mode=mode.value,
                capacity_factor=rules.capacity_factor,
                appendable_fraction=len(appendable) / GEO.pages_per_block,
                appends_done=done,
                corrected_bits=chip.stats.ecc_corrected_bits,
                uncorrectable_reads=uncorrectable,
                survived=uncorrectable == 0,
            )
        )
    return rows


def report(rows: list[ModeRow]) -> str:
    return render_table(
        [
            "Mode",
            "Capacity",
            "Appendable pages",
            "Appends done",
            "ECC-corrected bits",
            "Uncorrectable reads",
            "Safe",
        ],
        [
            [
                r.mode,
                f"{100 * r.capacity_factor:.0f}%",
                f"{100 * r.appendable_fraction:.0f}%",
                str(r.appends_done),
                str(r.corrected_bits),
                str(r.uncorrectable_reads),
                "yes" if r.survived else "NO",
            ]
            for r in rows
        ],
        title=(
            "E8 — program interference under an append storm "
            "(paper Section 3: IPA safe on SLC/pSLC/odd-MLC, unsafe on "
            "full MLC)"
        ),
    )

