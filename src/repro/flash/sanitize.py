"""Runtime physics sanitizer: assert-heavy invariant checks, off by default.

The paper's claims are *count* claims — invalidations, migrations,
erases, bytes moved — so every accounting bug is a fidelity bug.  The
production code paths validate their own preconditions, but a validation
bug silently corrupts every downstream number.  This module provides an
*independent* re-derivation of the simulator's physical and accounting
invariants, wired into the flash/FTL hot paths behind a flag:

    REPRO_SANITIZE=1 python -m pytest ...

When the flag is off (the default) every instrumented site pays exactly
one attribute load and one bool test — the same zero-cost-when-disabled
pattern as the observability tracer (``NULL_TRACER``) and the fault
injector.  ``benchmarks/test_sanitize_overhead.py`` guards that cost.

Checked invariants (see ``docs/static_analysis.md``):

* **ISPP monotonicity** — programming can only add charge, so no bit may
  go 0 -> 1 without an erase.  Verified independently of the production
  legality checks, before *and* after every program / reprogram /
  partial_program, including the OOB area.
* **Erase completeness** — after an erase, every cell of every page in
  the block reads back 0xFF and the pages report ``ERASED`` state.
* **FTL conservation** — the lba->ppn and ppn->lba maps stay
  inverse bijections; per-block valid counts match the reverse map;
  ``valid + invalid + free-page`` counts add up to the usable page count
  of every block; free-pool blocks hold no programmed usable pages.
* **Delta-slot accounting** — the FTL-side ``appends_done`` count of a
  page equals the number of used ECC slots in its physical OOB.

A violation raises :class:`PhysicsViolationError` (an ``AssertionError``
subclass, so ``pytest`` reports it as a failed invariant rather than an
application error).
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

import numpy as np

from repro.flash.cellmodel import ERASED_BYTE
from repro.flash.page import PageState, PhysicalPage

if TYPE_CHECKING:
    from repro.flash.block import EraseBlock
    from repro.flash.ecc import OobLayout
    from repro.ftl.page_mapping import PageMappingFtl
    from repro.obs.ledger import WriteLedger

ENV_VAR = "REPRO_SANITIZE"

_ERASED = ERASED_BYTE


class PhysicsViolationError(AssertionError):
    """An internal physical or accounting invariant was violated."""


class _NullSanitizer:
    """Shared disabled sanitizer: one attribute test per instrumented site."""

    __slots__ = ()
    enabled = False


NULL_SANITIZER = _NullSanitizer()


def sanitizer_from_env() -> "Sanitizer | _NullSanitizer":
    """The process-wide switch: a live :class:`Sanitizer` iff REPRO_SANITIZE=1.

    Read at *construction* time of each chip and each FTL (a NoFTL
    region is one), so tests can flip the environment between stacks
    without reloading modules.
    """
    if os.environ.get(ENV_VAR, "") == "1":
        return Sanitizer()
    return NULL_SANITIZER


def _fail(message: str) -> None:
    raise PhysicsViolationError(message)


class Sanitizer:
    """Invariant checks shared by the chip and FTL instrumentation points.

    Stateless (all checks re-derive ground truth from the objects they are
    handed), so one instance may be shared freely.
    """

    __slots__ = ()
    enabled = True

    # ------------------------------------------------------------------ #
    # Chip level: the ISPP physical law
    # ------------------------------------------------------------------ #

    def program_violation(
        self,
        page: PhysicalPage,
        data: bytes,
        oob: bytes | None,
        reprogram: bool,
    ) -> str | None:
        """Independently verify the transition obeys ISPP monotonicity.

        For a first-time program the target page must be fully erased
        (every data and OOB cell 0xFF); for a reprogram, the new image
        must be reachable by clearing bits only (``new & old == new``).

        Returns a description of the violation, or ``None`` if legal.
        The caller raises only if the *production* path then accepts the
        operation — the sanitizer flags missed validation, it must not
        pre-empt a correct ``IllegalProgramError``.
        """
        old_data = np.frombuffer(page.raw_data(), dtype=np.uint8)
        if not reprogram:
            if page.state is not PageState.ERASED:
                return "program of a page not in ERASED state"
            if int(old_data.min(initial=_ERASED)) != _ERASED:
                return (
                    "program target page reports ERASED but holds "
                    "programmed cells"
                )
        new_data = np.frombuffer(data, dtype=np.uint8)
        if len(new_data) != len(old_data):
            return (
                f"program image of {len(new_data)} B does not "
                f"match page size {len(old_data)} B"
            )
        if not bool(np.array_equal(new_data & old_data, new_data)):
            return (
                "ISPP violation — data transition sets a cleared "
                "bit (0 -> 1 without erase)"
            )
        if oob is not None:
            old_oob = np.frombuffer(page.raw_oob(), dtype=np.uint8)
            new_oob = np.frombuffer(oob, dtype=np.uint8)
            if len(new_oob) > len(old_oob):
                return (
                    f"OOB image of {len(new_oob)} B exceeds "
                    f"OOB size {len(old_oob)} B"
                )
            old_oob = old_oob[: len(new_oob)]
            if not bool(np.array_equal(new_oob & old_oob, new_oob)):
                return (
                    "ISPP violation — OOB transition sets a "
                    "cleared bit (0 -> 1 without erase)"
                )
        return None

    def partial_violation(
        self,
        page: PhysicalPage,
        offset: int,
        payload: bytes,
        oob_offset: int | None,
        oob_payload: bytes | None,
    ) -> str | None:
        """Range-local ISPP check for ``partial_program`` / write_delta."""
        target = page.raw_data()[offset : offset + len(payload)]
        if target.strip(bytes([_ERASED])):
            return (
                f"partial_program target [{offset}, "
                f"{offset + len(payload)}) is not erased"
            )
        if oob_payload is not None and oob_offset is not None:
            old = np.frombuffer(
                page.raw_oob()[oob_offset : oob_offset + len(oob_payload)],
                dtype=np.uint8,
            )
            new = np.frombuffer(oob_payload, dtype=np.uint8)
            if not bool(np.array_equal(new & old, new)):
                return "ISPP violation — partial OOB range sets a cleared bit"
        return None

    def check_accepted(self, violation: str | None) -> None:
        """Raise if the production path accepted a flagged transition."""
        if violation is not None:
            _fail(
                "sanitize: production validation accepted an illegal "
                "transition: " + violation
            )

    def check_programmed_image(
        self, page: PhysicalPage, data: bytes, oob: bytes | None
    ) -> None:
        """Post-condition: the cells now hold exactly the requested image."""
        if page.state is not PageState.PROGRAMMED:
            _fail("sanitize: page state is not PROGRAMMED after a program")
        if page.raw_data() != bytes(data):
            _fail("sanitize: stored data image differs from programmed bytes")
        if oob is not None and page.raw_oob() != bytes(oob):
            _fail("sanitize: stored OOB image differs from programmed bytes")

    def check_erased_block(self, block: "EraseBlock") -> None:
        """Post-condition of an erase: every cell of every page is 0xFF."""
        for index, page in enumerate(block.pages):
            if page.state is not PageState.ERASED:
                _fail(f"sanitize: page {index} not ERASED after block erase")
            if page.raw_data().strip(bytes([_ERASED])) or page.raw_oob().strip(
                bytes([_ERASED])
            ):
                _fail(
                    f"sanitize: page {index} holds programmed cells after "
                    "block erase"
                )

    # ------------------------------------------------------------------ #
    # FTL level: mapping bijectivity and page-count conservation
    # ------------------------------------------------------------------ #

    def check_mapping_pair(
        self, ftl: "PageMappingFtl", lba: int, ppn: int
    ) -> None:
        """Cheap per-write check: the just-written pair is consistent."""
        if ftl.mapping.get(lba) != ppn:
            _fail(f"sanitize: mapping[{lba}] != freshly written ppn {ppn}")
        if ftl._rmap.get(ppn) != lba:
            _fail(f"sanitize: rmap[{ppn}] != freshly written lba {lba}")

    def check_ftl(self, ftl: "PageMappingFtl") -> None:
        """Full conservation + bijectivity audit of one page-mapping FTL.

        O(blocks x pages) — run after victim erases, remounts and trims,
        not on the per-write fast path.
        """
        mapping = ftl.mapping
        rmap = ftl._rmap
        if len(mapping) != len(rmap):
            _fail(
                f"sanitize: mapping ({len(mapping)} entries) and reverse "
                f"map ({len(rmap)} entries) have different sizes"
            )
        for lba, ppn in mapping.items():
            if rmap.get(ppn) != lba:
                _fail(
                    f"sanitize: mapping bijectivity broken — mapping[{lba}]"
                    f" = {ppn} but rmap[{ppn}] = {rmap.get(ppn)!r}"
                )
        ppb = ftl.chip.geometry.pages_per_block
        valid_recount: dict[int, int] = {b: 0 for b in ftl.block_ids}
        for ppn in rmap:
            block_id = ppn // ppb
            if block_id not in valid_recount:
                _fail(
                    f"sanitize: mapped ppn {ppn} lives in block {block_id} "
                    "not owned by this FTL"
                )
            valid_recount[block_id] += 1
        usable = len(ftl._usable_offsets)
        offsets = ftl._usable_offsets
        programmed_state = PageState.PROGRAMMED
        free = set(ftl._free)
        for block_id in ftl.block_ids:
            recorded = ftl._valid.get(block_id)
            if recorded != valid_recount[block_id]:
                _fail(
                    f"sanitize: block {block_id} valid-count drift — "
                    f"recorded {recorded}, recounted {valid_recount[block_id]}"
                )
            pages = ftl.chip.blocks[block_id].pages
            programmed = sum(
                1 for off in offsets if pages[off].state is programmed_state
            )
            valid = valid_recount[block_id]
            invalid = programmed - valid
            free_pages = usable - programmed
            if invalid < 0 or free_pages < 0:
                _fail(
                    f"sanitize: block {block_id} page conservation broken — "
                    f"usable={usable} programmed={programmed} valid={valid} "
                    f"(invalid={invalid}, free={free_pages})"
                )
            if block_id in free and programmed:
                _fail(
                    f"sanitize: free-pool block {block_id} holds "
                    f"{programmed} programmed usable pages"
                )
        for ppn in ftl.appends_done:
            if ppn not in rmap:
                _fail(
                    f"sanitize: appends_done tracks ppn {ppn} that is not "
                    "mapped to any LBA"
                )

    def check_ledger(self, ledger: "WriteLedger") -> None:
        """Write-attribution conservation: per-cause sums == physical totals.

        The ledger is charged at the exact sites that increment
        :class:`~repro.flash.stats.FlashStats`, so any drift between the
        per-cause breakdown and the chips' own counters means an
        attribution path was missed or double-counted.
        """
        errors = ledger.conservation_errors()
        if errors:
            _fail("sanitize: write-ledger conservation broken — " + "; ".join(errors))

    def check_delta_slots(
        self, page: PhysicalPage, layout: "OobLayout", recorded: int
    ) -> None:
        """FTL delta-slot count must equal the physical OOB slot usage."""
        actual = layout.used_delta_slots(page.raw_oob())
        if actual != recorded:
            _fail(
                f"sanitize: delta-slot drift — FTL records {recorded} "
                f"appends but the OOB holds {actual} used slots"
            )
