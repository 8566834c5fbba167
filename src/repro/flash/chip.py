"""The simulated NAND chip: the hardware the whole reproduction runs on.

:class:`FlashChip` exposes the operation set of the OpenSSD firmware
environment the paper programs against:

* ``read_page`` / ``program_page`` / ``erase_block`` — the classic trio;
* ``reprogram_page`` — whole-page overwrite without erase, legal only for
  charge-increasing transitions (Demo-Scenario 2: the DBMS ships the full
  page image ``body + delta area`` over a block-device interface and the
  device programs it in place);
* ``partial_program`` — program a byte range of an already-programmed
  page, the physical half of the ``write_delta`` command (Demo-Scenario 3:
  only the delta bytes cross the bus).

The chip is one kernel: each operation kind has exactly one body, which
the per-op call runs.  A body validates, calls the observers (sanitizer,
fault injector, write ledger, tracer) at fixed points, mutates the cells,
advances the shared :class:`~repro.flash.latency.SimClock`, updates
:class:`~repro.flash.stats.FlashStats` and — for programs, reprograms and
partial programs — draws the mode's program interference against
neighbouring wordlines.  The bodies are also reachable through private
aliases (``_sense``, ``_program``, ``_reprogram``, ``_partial``,
``_erase``), which :func:`copy_pages` and the channel scheduler of
:class:`~repro.flash.device.FlashDevice` call, so a wrapper placed on a
public method of an instance sees the calls made to that method and
nothing else.  :func:`copy_pages` (``execute_batch``) moves pages: for
each ``(src_ppn, dst_ppn)`` pair it senses the source and programs that
page's own cell buffers to an erased page.  It is how garbage collection
relocates a victim's valid pages: one call per victim, no page image
materialized in between.

A chip also answers the *stack protocol* that
:class:`~repro.flash.device.FlashDevice` answers, so the layers above
never ask which of the two they hold: ``chips`` (the leaf chips, here
``(self,)``), ``channels`` (1), ``attach`` (point the observers at the
leaf chips), and the ``sync`` / ``quiesce`` / ``power_loss`` scheduling
calls, which are no-ops on a bare chip — it finishes every operation
before returning, so nothing is ever in flight.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.flash.block import EraseBlock
from repro.flash.cellmodel import first_illegal_offset
from repro.flash.ecc import DEFAULT_ECC
from repro.flash.errors import (
    BadBlockError,
    EccUncorrectableError,
    IllegalAddressError,
    IllegalProgramError,
    ModeViolationError,
    WriteToProgrammedPageError,
)
from repro.flash.geometry import FlashGeometry
from repro.flash.interference import DisturbModel, victim_table
from repro.flash.latency import DEFAULT_LATENCY, SimClock
from repro.flash.modes import FlashMode, ModeRules, rules_for
from repro.flash.page import PageState, PhysicalPage, erased_image
from repro.flash.sanitize import NULL_SANITIZER, sanitizer_from_env
from repro.flash.stats import FlashStats
from repro.obs.ledger import NULL_LEDGER, WriteLedger
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer

if TYPE_CHECKING:
    from repro.flash.device import FlashDevice

_ERASED = PageState.ERASED
_PROGRAMMED = PageState.PROGRAMMED


def copy_pages(
    kernel: FlashChip | FlashDevice, moves: Iterable[tuple[int, int]]
) -> None:
    """Move pages on ``kernel``, one ``(src_ppn, dst_ppn)`` pair at a time.

    A move is by definition ``read_page_with_oob(src_ppn)`` followed by
    ``program_page(dst_ppn, data, oob)``: the kernel's private bodies
    ``_sense`` and ``_program`` run, so validation order, error types
    and messages, latency charges, stats counters, disturb draws and
    observer calls are those of the two per-op calls, and the image goes
    from cell buffer to cell buffer.  This function is
    :meth:`FlashChip.execute_batch` and
    :meth:`~repro.flash.device.FlashDevice.execute_batch`; the name
    ``execute_batch`` is kept only because the end-to-end benchmark wraps
    it by name, and renaming it to ``copy_pages`` waits for the next
    change to the benchmark.

    Raises:
        Exactly what the per-op pair would raise, at the same move.  The
        moves before it (and, for an ECC-uncorrectable source, the failed
        sense itself) have been charged when the error propagates, and
        the raised exception carries ``batch_ops_completed`` — the
        number of completed leading moves.
    """
    sense = kernel._sense
    program = kernel._program
    index = 0
    try:
        for index, (src, dst) in enumerate(moves):
            page = sense(src)
            program(dst, page._data, page._oob)
    except Exception as exc:
        exc.batch_ops_completed = index  # type: ignore[attr-defined]
        raise


class FlashChip:
    """A single simulated NAND chip.

    Args:
        geometry: Physical dimensions (see :mod:`repro.flash.geometry`).
        mode: Operating mode — SLC / MLC / pSLC / odd-MLC (Section 3).
        clock: Simulated clock; a fresh one is created if omitted.
        seed: Seed for the deterministic disturb model.
        endurance_limit: Optional block P/E limit (``None`` = unlimited).
    """

    #: Observability: replaced per-instance by :meth:`attach`.
    tracer = NULL_TRACER

    #: Fault injection: replaced per-instance by
    #: ``repro.fault.FaultInjector.attach``.  When set, every mutating
    #: operation (program / reprogram / partial_program / erase) reports to
    #: the injector *after* validation but *before* the cells change, so a
    #: simulated power loss persists exactly the prefix of bytes the
    #: injector allows and nothing else (latency/stats are not charged for
    #: the interrupted operation — the machine is off).
    fault_injector = None

    #: Physics sanitizer: the shared disabled singleton unless the
    #: REPRO_SANITIZE=1 environment flag was set at construction.  Disabled
    #: cost per mutating operation: one attribute load + one bool test
    #: (guarded by ``benchmarks/test_sanitize_overhead.py``).
    sanitizer = NULL_SANITIZER

    #: Write-attribution ledger: replaced per-instance by :meth:`attach`.
    #: Charged by the program, reprogram, partial-program and erase
    #: bodies right where they increment :class:`FlashStats`, so
    #: per-cause counts cannot drift from the physical totals.  Same
    #: disabled cost contract as the sanitizer.
    ledger = NULL_LEDGER

    #: Stack protocol: a bare chip is one channel.
    channels = 1

    #: The one latency table and ECC configuration (both frozen).
    latency = DEFAULT_LATENCY
    ecc = DEFAULT_ECC

    def __init__(
        self,
        geometry: FlashGeometry,
        mode: FlashMode = FlashMode.SLC,
        clock: SimClock | None = None,
        seed: int = 0xF1A5,
        endurance_limit: int | None = None,
    ) -> None:
        self.geometry = geometry
        self.mode = mode
        self.rules: ModeRules = rules_for(mode)
        latency, ecc = self.latency, self.ecc
        self.clock = clock if clock is not None else SimClock()
        self.stats = FlashStats()
        self.sanitizer = sanitizer_from_env()
        self._disturb = DisturbModel(self.rules, ecc, geometry.page_size, seed=seed)
        self.blocks = [
            EraseBlock(
                geometry.pages_per_block,
                geometry.page_size,
                geometry.oob_size,
                ecc,
                endurance_limit=endurance_limit,
            )
            for _ in range(geometry.blocks)
        ]
        # Everything below depends only on geometry, mode, ECC and the
        # (frozen) latency table, so the bodies read it ready-made.
        ppb = geometry.pages_per_block
        self._ppb = ppb
        self._total_pages = geometry.total_pages
        self._page_size = geometry.page_size
        self._oob_size = geometry.oob_size
        self._pages_flat = [page for block in self.blocks for page in block.pages]
        self._victims = victim_table(ppb, self.rules)
        self._usable_mask = tuple(self.rules.page_usable(p) for p in range(ppb))
        self._appendable_mask = tuple(
            self.rules.page_appendable(p) for p in range(ppb)
        )
        self._lsb_mask = tuple(self.rules.page_is_lsb(p) for p in range(ppb))
        self._usable_offsets = tuple(p for p in range(ppb) if self._usable_mask[p])
        self._usable_capacity = len(self._usable_offsets) * geometry.blocks
        self._pad_tail = erased_image(geometry.page_size)
        self._ecc_t = ecc.correctable_bits
        self._read_us = latency.read_us
        self._read_nbytes = geometry.page_size + geometry.oob_size
        self._read_bus_us = self._read_nbytes * latency.bus_us_per_byte
        self._program_lsb_us = latency.program_lsb_us
        self._program_msb_us = latency.program_msb_us
        self._reprogram_us = latency.reprogram_us
        self._erase_us = latency.erase_us
        self._bus_us_per_byte = latency.bus_us_per_byte
        # Reprogram legality scratch: ``new | old`` lands here, so the
        # check allocates nothing per op.
        self._scratch_data = np.empty(geometry.page_size, dtype=np.uint8)
        self._scratch_oob = np.empty(geometry.oob_size, dtype=np.uint8)

    # ------------------------------------------------------------------ #
    # Addressing helpers
    # ------------------------------------------------------------------ #

    def page_at(self, ppn: int) -> PhysicalPage:
        """The :class:`PhysicalPage` object behind a physical page number."""
        if 0 <= ppn < self._total_pages:
            return self._pages_flat[ppn]
        raise IllegalAddressError(
            f"ppn {ppn} out of range [0, {self._total_pages})"
        )

    def page_state(self, ppn: int) -> PageState:
        """Programming state of a page without charging read latency."""
        return self.page_at(ppn).state

    def usable_pages_in_block(self) -> list[int]:
        """Page-in-block indexes usable under the current mode.

        pSLC mode halves this list (LSB pages only); all other modes use
        every page.  The set is fixed at construction; callers get a fresh
        list they may reorder freely.
        """
        return list(self._usable_offsets)

    @property
    def usable_capacity_pages(self) -> int:
        """Total pages available to store data in the current mode."""
        return self._usable_capacity

    # ------------------------------------------------------------------ #
    # Stack protocol (shared with FlashDevice)
    # ------------------------------------------------------------------ #

    @property
    def chips(self) -> tuple[FlashChip]:
        """The leaf chips behind this chip-shaped object: itself."""
        return (self,)

    def attach(self, tracer: Tracer | NullTracer, ledger: WriteLedger) -> None:
        """Point the tracer and the write ledger at this chip.

        The ledger watches the chip, so its per-cause totals are checked
        against this chip's counters from now on.
        """
        self.tracer = tracer
        self.ledger = ledger
        ledger.watch_chip(self)

    def sync(self) -> None:
        """Flush barrier: a no-op — every operation already finished."""

    def quiesce(self) -> None:
        """Drop scheduling state: a no-op — a bare chip keeps none."""

    def power_loss(self) -> None:
        """Tear in-flight operations: a no-op — none is ever in flight.

        The fault injector tears the one operation it interrupts itself.
        """

    # ------------------------------------------------------------------ #
    # The kernel: one body per operation kind
    # ------------------------------------------------------------------ #

    def read_page(self, ppn: int) -> bytes:
        """Read a page's data area (charges read + bus latency)."""
        return bytes(self._sense(ppn)._data)

    def read_page_with_oob(self, ppn: int) -> tuple[bytes, bytes]:
        """Read a page's data and OOB areas."""
        page = self._sense(ppn)
        return bytes(page._data), bytes(page._oob)

    def _sense(self, ppn: int) -> PhysicalPage:
        """The read body: sense one page through the ECC model.

        Charges read + bus time for the data and OOB areas and counts the
        corrected bits; returns the page, whose buffers the caller copies
        (a read) or programs elsewhere (a copy).

        Raises:
            EccUncorrectableError: a codeword's disturb count exceeds the
                correction capability.  The sense happened: its read time
                is charged and the read and the event are counted.
        """
        if not 0 <= ppn < self._total_pages:
            raise IllegalAddressError(
                f"ppn {ppn} out of range [0, {self._total_pages})"
            )
        page = self._pages_flat[ppn]
        stats = self.stats
        clock = self.clock
        breakdown = clock.breakdown_us
        read_us = self._read_us
        if page.state is _PROGRAMMED:
            worst = page._disturb_worst
            if worst > self._ecc_t:
                clock._now_us += read_us
                breakdown["read"] = breakdown.get("read", 0.0) + read_us
                stats.page_reads += 1
                stats.ecc_uncorrectable_events += 1
                raise EccUncorrectableError(
                    f"codeword with {worst} bit errors exceeds t={self._ecc_t}",
                    bit_errors=worst,
                )
            stats.ecc_corrected_bits += page._disturb_total
        # The clock takes the operation's time, then the transfer's, as two
        # additions in that order; so does each category total.
        bus_us = self._read_bus_us
        clock._now_us += read_us
        clock._now_us += bus_us
        breakdown["read"] = breakdown.get("read", 0.0) + read_us
        breakdown["bus"] = breakdown.get("bus", 0.0) + bus_us
        stats.page_reads += 1
        stats.bytes_read += self._read_nbytes
        return page

    def program_page(self, ppn: int, data: bytes, oob: bytes | None = None) -> None:
        """First-time program of an erased page.

        A short ``data`` image is padded with erased bytes to the page
        size; ``oob``, when given, must be exactly the OOB size.

        Raises:
            ModeViolationError: if the page is unusable in this mode
                (MSB page in pSLC mode).
            WriteToProgrammedPageError: if the page is already programmed.
            BadBlockError: if the containing block was retired.
        """
        if not 0 <= ppn < self._total_pages:
            raise IllegalAddressError(
                f"ppn {ppn} out of range [0, {self._total_pages})"
            )
        block_idx = ppn // self._ppb
        page_idx = ppn - block_idx * self._ppb
        block = self.blocks[block_idx]
        if block.is_bad:
            raise BadBlockError(f"block {block_idx} is retired")
        if not self._usable_mask[page_idx]:
            raise ModeViolationError(
                f"page {page_idx} in block {block_idx} is not usable in "
                f"{self.mode.value} mode"
            )
        if len(data) != self._page_size:
            data = self._pad(data)
        page = block.pages[page_idx]
        sz = self.sanitizer
        if sz.enabled:
            violation = sz.program_violation(page, data, oob, reprogram=False)
        fi = self.fault_injector
        if fi is not None:
            fi.on_program(page, data, oob, reprogram=False)
        if page.state is not _ERASED:
            raise WriteToProgrammedPageError(
                "plain program of a programmed page; reprogram() is explicit"
            )
        nbytes = self._page_size
        if oob is not None:
            if len(oob) != self._oob_size:
                raise ValueError(
                    f"oob must be exactly {self._oob_size} bytes, got {len(oob)}"
                )
            nbytes += self._oob_size
        # The erased -> programmed edge: the page leaves the shared erased
        # images for cells of its own.
        page._oob = bytearray(page._oob if oob is None else oob)
        page._data = bytearray(data)
        page.state = _PROGRAMMED
        page.program_passes = 1
        if sz.enabled:
            sz.check_accepted(violation)
            sz.check_programmed_image(page, data, oob)
        self._pulse_done(block, page_idx, nbytes, False, False)

    def reprogram_page(self, ppn: int, data: bytes, oob: bytes | None = None) -> None:
        """Overwrite a programmed page in place (no erase).

        Legal only for charge-increasing transitions (no bit of data or
        OOB may go 0 -> 1) and, per the mode's appendability rule, only on
        appendable pages (odd-MLC: LSB pages only).  Injects program
        interference into the neighbours like any program pulse.

        Raises:
            ModeViolationError: if the mode forbids reprogramming this page.
            IllegalProgramError: if any bit would have to go 0 -> 1.
        """
        if not 0 <= ppn < self._total_pages:
            raise IllegalAddressError(
                f"ppn {ppn} out of range [0, {self._total_pages})"
            )
        block_idx = ppn // self._ppb
        page_idx = ppn - block_idx * self._ppb
        block = self.blocks[block_idx]
        if block.is_bad:
            raise BadBlockError(f"block {block_idx} is retired")
        if not self._appendable_mask[page_idx]:
            raise ModeViolationError(
                f"page {page_idx} may not be reprogrammed in "
                f"{self.mode.value} mode"
            )
        if len(data) != self._page_size:
            data = self._pad(data)
        page = block.pages[page_idx]
        sz = self.sanitizer
        if sz.enabled:
            violation = sz.program_violation(page, data, oob, reprogram=True)
        fi = self.fault_injector
        if fi is not None:
            fi.on_program(page, data, oob, reprogram=True)
        if oob is not None and len(oob) != self._oob_size:
            raise ValueError(
                f"oob must be exactly {self._oob_size} bytes, got {len(oob)}"
            )
        # Legality as a set-union compare: ``new`` is reachable iff its
        # set bits are a subset of the old image's, i.e. ``new | old ==
        # old`` — an OR into scratch and a memcmp over zero-copy views.
        new = np.frombuffer(data, dtype=np.uint8)
        old = np.frombuffer(page._data, dtype=np.uint8)
        np.bitwise_or(new, old, out=self._scratch_data)
        if bytes(self._scratch_data) != page._data:
            off = first_illegal_offset(old, new)
            raise IllegalProgramError(
                f"reprogram needs erase: data byte {off} sets a cleared bit",
                first_bad_offset=off,
            )
        nbytes = self._page_size
        if oob is not None:
            new_oob = np.frombuffer(oob, dtype=np.uint8)
            old_oob = np.frombuffer(page._oob, dtype=np.uint8)
            np.bitwise_or(new_oob, old_oob, out=self._scratch_oob)
            if bytes(self._scratch_oob) != page._oob:
                off = first_illegal_offset(old_oob, new_oob)
                raise IllegalProgramError(
                    f"reprogram needs erase: OOB byte {off} sets a cleared bit",
                    first_bad_offset=off,
                )
            nbytes += self._oob_size
        if page.state is _ERASED:
            # First pulse on an erased page: cells of its own (as above).
            page._oob = bytearray(page._oob if oob is None else oob)
            page._data = bytearray(data)
            page.state = _PROGRAMMED
        else:
            if oob is not None:
                page._oob[:] = oob
            page._data[:] = data
        page.program_passes += 1
        if sz.enabled:
            sz.check_accepted(violation)
            sz.check_programmed_image(page, data, oob)
        self._pulse_done(block, page_idx, nbytes, True, False)

    def partial_program(
        self,
        ppn: int,
        offset: int,
        payload: bytes,
        oob_offset: int | None = None,
        oob_payload: bytes | None = None,
    ) -> None:
        """Program a byte range of a page — the device half of write_delta.

        Range-local: validates and writes only
        ``[offset, offset+len(payload))`` (plus the OOB range, if any)
        instead of reconstructing and re-validating the full page image.
        The data range must currently be erased (all 0xFF) so the
        transition is guaranteed legal; the OOB range follows the ordinary
        charge-only-increases rule, and its check gates everything, so a
        failing partial program mutates nothing.  A reprogram pulse is
        charged, but only the payload crosses the bus.

        Raises:
            IllegalProgramError: if the target range is not erased (or the
                OOB range would set a cleared bit).
        """
        if not 0 <= ppn < self._total_pages:
            raise IllegalAddressError(
                f"ppn {ppn} out of range [0, {self._total_pages})"
            )
        block_idx = ppn // self._ppb
        page_idx = ppn - block_idx * self._ppb
        block = self.blocks[block_idx]
        page = block.pages[page_idx]
        size = len(payload)
        end = offset + size
        if offset < 0 or end > self._page_size:
            raise ValueError(
                f"range [{offset}, {end}) exceeds page size {self._page_size}"
            )
        # Erased iff it memcmp-equals an all-FF run of the same length.
        if page._data[offset:end] != self._pad_tail[:size]:
            raise IllegalProgramError(
                f"append target [{offset}, {end}) is not erased",
                first_bad_offset=offset,
            )
        if oob_payload is not None:
            if oob_offset is None:
                raise ValueError("oob_payload requires oob_offset")
            if oob_offset < 0 or oob_offset + len(oob_payload) > self._oob_size:
                raise ValueError("OOB range out of bounds")
        if block.is_bad:
            raise BadBlockError(f"block {block_idx} is retired")
        if not self._appendable_mask[page_idx]:
            raise ModeViolationError(
                f"page {page_idx} may not be reprogrammed in "
                f"{self.mode.value} mode"
            )
        sz = self.sanitizer
        if sz.enabled:
            violation = sz.partial_violation(
                page, offset, payload, oob_offset, oob_payload
            )
        fi = self.fault_injector
        if fi is not None:
            fi.on_partial(page, offset, payload, oob_offset, oob_payload)
        transferred = size
        if oob_payload is not None:
            oob_end = oob_offset + len(oob_payload)
            old = page._oob[oob_offset:oob_end]
            # An ECC slot is 8 bytes: one integer AND-NOT, where a numpy
            # dispatch on so small an operand costs more than the append.
            if int.from_bytes(oob_payload, "little") & ~int.from_bytes(
                old, "little"
            ):
                off = oob_offset + first_illegal_offset(old, oob_payload)
                raise IllegalProgramError(
                    f"reprogram needs erase: OOB byte {off} sets a cleared bit",
                    first_bad_offset=off,
                )
            transferred += len(oob_payload)
        if page.state is _ERASED:
            # First pulse on an erased page: cells of its own, copied from
            # the erased images it held.
            page._data = bytearray(page._data)
            page._oob = bytearray(page._oob)
            page.state = _PROGRAMMED
        if oob_payload is not None:
            page._oob[oob_offset:oob_end] = oob_payload
        page._data[offset:end] = payload
        page.program_passes += 1
        if sz.enabled:
            sz.check_accepted(violation)
        self._pulse_done(block, page_idx, transferred, True, True)

    def erase_block(self, block_idx: int) -> None:
        """Erase one block (all pages, data and OOB)."""
        self.geometry.check_block(block_idx)
        block = self.blocks[block_idx]
        fi = self.fault_injector
        if fi is not None:
            fi.on_erase(block)
        block.erase()
        sz = self.sanitizer
        if sz.enabled:
            sz.check_erased_block(block)
        erase_us = self._erase_us
        clock = self.clock
        clock._now_us += erase_us
        breakdown = clock.breakdown_us
        breakdown["erase"] = breakdown.get("erase", 0.0) + erase_us
        self.stats.block_erases += 1
        lg = self.ledger
        if lg.enabled:
            lg.on_erase()
            if sz.enabled:
                # Erases are rare and already pay a full block audit, so
                # this is where the per-cause ledger is re-checked against
                # the physical counters under REPRO_SANITIZE=1.
                sz.check_ledger(lg)
        tr = self.tracer
        if tr.enabled:
            tr.record("chip_erase", dur_us=erase_us, block=block_idx)

    # The bodies as copy_pages and the channel scheduler reach them (see
    # the module docstring).
    _program = program_page
    _reprogram = reprogram_page
    _partial = partial_program
    _erase = erase_block

    #: ``execute_batch(moves)``: :func:`copy_pages` on this chip.
    execute_batch = copy_pages

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _pad(self, data: bytes) -> bytes:
        """Right-pad a short image with erased bytes to full page size."""
        n = len(data)
        if n > self._page_size:
            raise ValueError(f"data of {n} B exceeds page size {self._page_size}")
        return bytes(data) + self._pad_tail[n:]

    def _pulse_done(
        self,
        block: EraseBlock,
        page_idx: int,
        nbytes: int,
        reprogram: bool,
        partial: bool,
    ) -> None:
        """What every program pulse leaves behind once the cells hold the
        new image: counters, the clock (operation time, then transfer
        time, as two additions each), the ledger and the interference
        drawn for the programmed neighbouring pages.  The program,
        reprogram and partial-program bodies all end here."""
        stats = self.stats
        if reprogram:
            op_us = self._reprogram_us
            stats.page_reprograms += 1
        else:
            op_us = (
                self._program_lsb_us if self._lsb_mask[page_idx]
                else self._program_msb_us
            )
            stats.page_programs += 1
        stats.bytes_programmed += nbytes
        bus_us = nbytes * self._bus_us_per_byte
        clock = self.clock
        clock._now_us += op_us
        clock._now_us += bus_us
        breakdown = clock.breakdown_us
        breakdown["program"] = breakdown.get("program", 0.0) + op_us
        breakdown["bus"] = breakdown.get("bus", 0.0) + bus_us
        lg = self.ledger
        if lg.enabled:
            lg.on_program(nbytes, reprogram, partial)
        pages = block.pages
        neighbours = self._victims[page_idx]
        victims = 0
        for v in neighbours:
            if pages[v].state is _PROGRAMMED:
                victims += 1
        if not victims:
            return
        rows = self._disturb.draw(reprogram, victims)
        if rows is None:
            return  # the common case: not one bit flipped
        # Row ``i`` of the draw belongs to the ``i``-th programmed neighbour.
        row_of = iter(rows)
        for v in neighbours:
            victim = pages[v]
            if victim.state is _PROGRAMMED:
                row = next(row_of)
                flips = sum(row)
                if flips:
                    victim.add_disturb(np.array(row, dtype=np.int64))
                    stats.disturb_bit_flips += flips


def media_digest(*devices: FlashChip | FlashDevice) -> str:
    """SHA-256 over every physical page (data + OOB) of the devices.

    Enumerates each device's leaf chips (``device.chips``) chip-major,
    then pages in chip-local order, through the public page accessors:
    a pure function of media bytes, never of a device's striping
    arithmetic, so two stacks agree iff their chips are byte-identical.
    """
    digest = hashlib.sha256()
    for device in devices:
        for chip in device.chips:
            for ppn in range(chip.geometry.total_pages):
                page = chip.page_at(ppn)
                digest.update(page.raw_data())
                digest.update(page.raw_oob())
    return digest.hexdigest()
