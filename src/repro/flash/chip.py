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

Every operation advances the shared :class:`~repro.flash.latency.SimClock`
and updates :class:`~repro.flash.stats.FlashStats`; programs and
reprograms trigger the mode's program-interference model against
neighbouring wordlines.

:meth:`FlashChip.execute_batch` executes a whole encoded run of these
operations (see :mod:`repro.flash.batch`) in one Python call with
bit-identical simulated outcomes — the speed-round-2 op-level batching
layer.  Its ``OP_COPY`` row (read a page with its OOB, program the image
to an erased page) is how garbage collection relocates a victim's valid
pages: one call per victim, no page image materialized in between.
"""

from __future__ import annotations

import numpy as np

from repro.flash.batch import (
    OP_COPY,
    OP_DTYPE,
    OP_ERASE,
    OP_PARTIAL,
    OP_PROGRAM,
    OP_READ,
    OP_REPROGRAM,
    OpBatch,
)
from repro.flash.block import EraseBlock
from repro.flash.cellmodel import ERASED_BYTE, first_illegal_offset
from repro.flash.ecc import DEFAULT_ECC, EccConfig
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
from repro.flash.latency import DEFAULT_LATENCY, LatencyModel, SimClock
from repro.flash.modes import FlashMode, ModeRules, rules_for
from repro.flash.page import PageState, PhysicalPage
from repro.flash.sanitize import NULL_SANITIZER, sanitizer_from_env
from repro.flash.stats import FlashStats
from repro.obs.ledger import NULL_LEDGER
from repro.obs.trace import NULL_TRACER


class FlashChip:
    """A single simulated NAND chip.

    Args:
        geometry: Physical dimensions (see :mod:`repro.flash.geometry`).
        mode: Operating mode — SLC / MLC / pSLC / odd-MLC (Section 3).
        latency: Per-operation latency table; shares ``clock``.
        clock: Simulated clock; a fresh one is created if omitted.
        ecc: ECC correction capability per codeword.
        seed: Seed for the deterministic disturb model.
        endurance_limit: Optional block P/E limit (``None`` = unlimited).
    """

    #: Observability: replaced per-instance by ``repro.obs.attach_tracer``.
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

    #: Write-attribution ledger: replaced per-instance by
    #: ``repro.obs.ledger.attach_ledger``.  Charged from the exact sites
    #: that increment :class:`FlashStats` (``_charge_program`` /
    #: ``erase_block``) so per-cause counts cannot drift from the
    #: physical totals.  Same disabled cost contract as the sanitizer.
    ledger = NULL_LEDGER

    def __init__(
        self,
        geometry: FlashGeometry,
        mode: FlashMode = FlashMode.SLC,
        latency: LatencyModel = DEFAULT_LATENCY,
        clock: SimClock | None = None,
        ecc: EccConfig = DEFAULT_ECC,
        seed: int = 0xF1A5,
        endurance_limit: int | None = None,
    ) -> None:
        self.geometry = geometry
        self.mode = mode
        self.rules: ModeRules = rules_for(mode)
        self.latency = latency
        self.clock = clock if clock is not None else SimClock()
        self.ecc = ecc
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
        # Hot-path precomputation: everything below depends only on
        # geometry, mode and the (frozen) latency table, so it is resolved
        # once here instead of per operation (victim sets used to be
        # rebuilt on every program, mode predicates re-evaluated per call,
        # and usable-page scans run on every capacity query).
        ppb = geometry.pages_per_block
        self._ppb = ppb
        self._total_pages = geometry.total_pages
        self._page_size = geometry.page_size
        self._victims = victim_table(ppb, self.rules)
        self._usable_mask = tuple(self.rules.page_usable(p) for p in range(ppb))
        self._appendable_mask = tuple(
            self.rules.page_appendable(p) for p in range(ppb)
        )
        self._lsb_mask = tuple(self.rules.page_is_lsb(p) for p in range(ppb))
        self._usable_offsets = tuple(p for p in range(ppb) if self._usable_mask[p])
        self._usable_capacity = len(self._usable_offsets) * geometry.blocks
        self._pad_tail = bytes([ERASED_BYTE]) * geometry.page_size
        self._read_us = latency.read_us
        self._program_lsb_us = latency.program_lsb_us
        self._program_msb_us = latency.program_msb_us
        self._reprogram_us = latency.reprogram_us
        self._bus_us_per_byte = latency.bus_us_per_byte
        # Batched execution: ppn -> page object without the divmod +
        # two list hops, the (constant) bus charge of a full read, and
        # preallocated legality scratch so the inlined reprogram check
        # allocates nothing per op.
        self._pages_flat = [
            page for block in self.blocks for page in block.pages
        ]
        self._read_bus_us = (
            (geometry.page_size + geometry.oob_size) * latency.bus_us_per_byte
        )
        self._scratch_data = np.empty(geometry.page_size, dtype=np.uint8)
        self._scratch_oob = np.empty(geometry.oob_size, dtype=np.uint8)

    # ------------------------------------------------------------------ #
    # Addressing helpers
    # ------------------------------------------------------------------ #

    def page_at(self, ppn: int) -> PhysicalPage:
        """The :class:`PhysicalPage` object behind a physical page number."""
        block, page = self._split(ppn)
        return self.blocks[block].pages[page]

    def _split(self, ppn: int) -> tuple[int, int]:
        """Bounds-checked (block, page-in-block) split, geometry precached."""
        if 0 <= ppn < self._total_pages:
            return divmod(ppn, self._ppb)
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
    # Core operations
    # ------------------------------------------------------------------ #

    def read_page(self, ppn: int, check_ecc: bool = True) -> bytes:
        """Read a page's data area (charges read + bus latency)."""
        data, _oob, corrected = self._read(ppn, check_ecc)
        return data

    def read_page_with_oob(
        self, ppn: int, check_ecc: bool = True
    ) -> tuple[bytes, bytes]:
        """Read a page's data and OOB areas."""
        data, oob, _corrected = self._read(ppn, check_ecc)
        return data, oob

    def _read(self, ppn: int, check_ecc: bool) -> tuple[bytes, bytes, int]:
        block_idx, page_idx = self._split(ppn)
        page = self.blocks[block_idx].pages[page_idx]
        try:
            data, oob, corrected = page.read(check_ecc=check_ecc)
        except EccUncorrectableError:
            # The sense operation happened; charge it and count the event.
            self.clock.advance(self._read_us, "read")
            self.stats.page_reads += 1
            self.stats.ecc_uncorrectable_events += 1
            raise
        nbytes = len(data) + len(oob)
        self.clock.advance_pair(
            self._read_us, "read", nbytes * self._bus_us_per_byte, "bus"
        )
        stats = self.stats
        stats.page_reads += 1
        stats.bytes_read += nbytes
        stats.ecc_corrected_bits += corrected
        return data, oob, corrected

    def program_page(self, ppn: int, data: bytes, oob: bytes | None = None) -> None:
        """First-time program of an erased page.

        Raises:
            ModeViolationError: if the page is unusable in this mode
                (MSB page in pSLC mode).
            WriteToProgrammedPageError: if the page is already programmed.
            BadBlockError: if the containing block was retired.
        """
        block_idx, page_idx = self._split(ppn)
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
        sz = self.sanitizer
        if sz.enabled:
            violation = sz.program_violation(
                block.pages[page_idx], data, oob, reprogram=False
            )
        fi = self.fault_injector
        if fi is not None:
            fi.on_program(block.pages[page_idx], data, oob, reprogram=False)
        block.pages[page_idx].program(data, oob)
        if sz.enabled:
            sz.check_accepted(violation)
            sz.check_programmed_image(block.pages[page_idx], data, oob)
        nbytes = len(data) + (len(oob) if oob else 0)
        self._charge_program(block_idx, page_idx, nbytes, reprogram=False)

    def reprogram_page(self, ppn: int, data: bytes, oob: bytes | None = None) -> None:
        """Overwrite a programmed page in place (no erase).

        The page model enforces the charge-only-increases rule; the chip
        additionally enforces the mode's appendability rule (odd-MLC: LSB
        pages only) and injects program interference into neighbours.

        Raises:
            ModeViolationError: if the mode forbids reprogramming this page.
            IllegalProgramError: if any bit would have to go 0 -> 1.
        """
        block_idx, page_idx = self._split(ppn)
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
        sz = self.sanitizer
        if sz.enabled:
            violation = sz.program_violation(
                block.pages[page_idx], data, oob, reprogram=True
            )
        fi = self.fault_injector
        if fi is not None:
            fi.on_program(block.pages[page_idx], data, oob, reprogram=True)
        block.pages[page_idx].reprogram(data, oob)
        if sz.enabled:
            sz.check_accepted(violation)
            sz.check_programmed_image(block.pages[page_idx], data, oob)
        nbytes = len(data) + (len(oob) if oob else 0)
        self._charge_program(block_idx, page_idx, nbytes, reprogram=True)

    def partial_program(
        self,
        ppn: int,
        offset: int,
        payload: bytes,
        oob_offset: int | None = None,
        oob_payload: bytes | None = None,
    ) -> None:
        """Program a byte range of a page — the device half of write_delta.

        Range-local fast path: validates and writes only
        ``[offset, offset+len(payload))`` (plus the OOB range, if any)
        instead of reconstructing and re-validating the full page image.
        The data range must currently be erased (all 0xFF) so the
        transition is guaranteed legal; the OOB range follows the ordinary
        charge-only-increases rule.  Only ``len(payload)`` data bytes are
        charged as bus transfer.

        Raises:
            IllegalProgramError: if the target range is not erased (or the
                OOB range would set a cleared bit).
        """
        block_idx, page_idx = self._split(ppn)
        block = self.blocks[block_idx]
        page = block.pages[page_idx]
        if offset < 0 or offset + len(payload) > page.page_size:
            raise ValueError(
                f"range [{offset}, {offset + len(payload)}) exceeds page size "
                f"{page.page_size}"
            )
        page.check_append_target(offset, len(payload))
        if oob_payload is not None:
            if oob_offset is None:
                raise ValueError("oob_payload requires oob_offset")
            if oob_offset < 0 or oob_offset + len(oob_payload) > page.oob_size:
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
        page.append_range(offset, payload, oob_offset, oob_payload)
        if sz.enabled:
            sz.check_accepted(violation)
        # Latency/stats: a reprogram pulse train, but only the payload
        # crosses the bus (the whole point of write_delta).
        transferred = len(payload) + (len(oob_payload) if oob_payload else 0)
        self._charge_program(
            block_idx, page_idx, transferred, reprogram=True, partial=True
        )

    def erase_block(self, block_idx: int) -> None:
        """Erase one block (all pages, data and OOB)."""
        self.geometry.check_block(block_idx)
        fi = self.fault_injector
        if fi is not None:
            fi.on_erase(self.blocks[block_idx])
        self.blocks[block_idx].erase()
        sz = self.sanitizer
        if sz.enabled:
            sz.check_erased_block(self.blocks[block_idx])
        self.clock.advance(self.latency.erase_us, "erase")
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
            tr.record("chip_erase", dur_us=self.latency.erase_us, block=block_idx)

    # ------------------------------------------------------------------ #
    # Batched execution
    # ------------------------------------------------------------------ #

    def execute_batch(
        self,
        ops: np.ndarray | OpBatch,
        payload: bytes | bytearray | memoryview | None = None,
    ) -> list[bytes]:
        """Execute an encoded run of operations in one call.

        ``ops`` is either an :class:`~repro.flash.batch.OpBatch` builder or
        a numpy structured array of :data:`~repro.flash.batch.OP_DTYPE`
        rows with ``payload`` as its data heap (see :mod:`repro.flash.batch`
        for the encoding).  Operations execute strictly in array order with
        per-op semantics — validation order, error types/messages, latency
        charges, stats counters and disturb draws are bit-identical to the
        equivalent sequence of per-op method calls; only host wall-clock
        differs.  Reads use ``check_ecc=True``.

        Returns:
            Data images of the ``OP_READ`` rows, in batch order.

        Raises:
            Exactly what the per-op sequence would raise, at the same
            operation.  The accounting of every *completed* operation (and,
            for an ECC-uncorrectable read, the failed sense itself) is
            committed before the error propagates, and the raised exception
            carries ``batch_ops_completed`` — the number of fully executed
            leading operations — and ``batch_results`` — the read results
            those completed operations produced.
        """
        heap: bytes | bytearray | memoryview
        if isinstance(ops, OpBatch):
            if payload is not None:
                raise ValueError("payload is implicit when passing an OpBatch")
            rows = ops._rows
            heap = memoryview(ops._payload)
        else:
            if ops.dtype.names != OP_DTYPE.names:
                raise ValueError(
                    f"ops must be a structured array of OP_DTYPE rows, got "
                    f"dtype {ops.dtype}"
                )
            # Structured-array tolist() decodes every row to a plain tuple
            # of Python ints in one vectorized call; iterating np.void rows
            # directly would pay numpy scalar boxing per field access.
            rows = ops.tolist()
            heap = memoryview(payload if payload is not None else b"")
        if not rows:
            return []
        if (
            self.sanitizer.enabled
            or self.fault_injector is not None
            or self.ledger.enabled
            or self.tracer.enabled
        ):
            return self._execute_batch_compat(rows, heap)
        return self._execute_batch_fast(rows, heap)

    def _execute_batch_compat(
        self,
        rows: list[tuple[int, int, int, int, int, int, int, int]],
        heap: memoryview,
    ) -> list[bytes]:
        """Per-op fallback used while instrumentation is attached.

        The sanitizer, fault injector, write ledger and tracer all hook the
        public per-op methods; routing batches through those methods keeps
        every hook's semantics (tear points, per-cause attribution, span
        events) exactly as documented, at per-op speed.  Profiles that need
        the fast path run with instrumentation off, which is the default.
        """
        out: list[bytes] = []
        index = 0
        try:
            for index, (
                kind,
                target,
                offset,
                dpos,
                dlen,
                ooff,
                opos,
                olen,
            ) in enumerate(rows):
                if kind == OP_READ:
                    out.append(self.read_page(target))
                elif kind == OP_ERASE:
                    self.erase_block(target)
                elif kind == OP_COPY:
                    data, oob = self.read_page_with_oob(dpos)
                    self.program_page(target, data, oob)
                else:
                    data = bytes(heap[dpos : dpos + dlen]) if dlen >= 0 else b""
                    oob = bytes(heap[opos : opos + olen]) if olen >= 0 else None
                    if kind == OP_PROGRAM:
                        self.program_page(target, data, oob)
                    elif kind == OP_REPROGRAM:
                        self.reprogram_page(target, data, oob)
                    elif kind == OP_PARTIAL:
                        self.partial_program(
                            target,
                            offset,
                            data,
                            oob_offset=None if ooff < 0 else ooff,
                            oob_payload=oob,
                        )
                    else:
                        raise ValueError(f"unknown op code {kind}")
        except Exception as exc:
            exc.batch_ops_completed = index  # type: ignore[attr-defined]
            exc.batch_results = out  # type: ignore[attr-defined]
            raise
        return out

    def _execute_batch_fast(
        self,
        rows: list[tuple[int, int, int, int, int, int, int, int]],
        heap: memoryview,
    ) -> list[bytes]:
        """Hot batched loop: per-op outcomes, one call's worth of overhead.

        Two techniques, both bit-identical to the per-op path (locked by
        tests/flash/test_batch_equivalence.py); program interference is
        the per-op path's own :meth:`_apply_interference`, op by op:

        * **Hoisting + local accounting** — every lookup the per-op path
          repeats per call (mode masks, latency floats, clock/breakdown
          dict entries, stats attributes) is resolved once; latency and
          counters accumulate in locals and are committed via
          :meth:`SimClock.commit_batch` under the batched-charging
          contract (same float additions, same order — see
          :meth:`SimClock.category_us`), also on the error path
          (``finally``) so a mid-batch failure leaves exactly the per-op
          sequence's state.
        * **Inlined page mutations** — the program / reprogram / partial
          transition checks and buffer writes from
          :class:`~repro.flash.page.PhysicalPage` are open-coded here
          (same validation order, same error messages), with the
          reprogram legality check running through preallocated scratch
          buffers instead of fresh temporaries.
        """
        out: list[bytes] = []
        out_append = out.append
        blocks = self.blocks
        pages_flat = self._pages_flat
        ppb = self._ppb
        total_pages = self._total_pages
        page_size = self._page_size
        oob_size = self.geometry.oob_size
        usable = self._usable_mask
        appendable = self._appendable_mask
        lsb = self._lsb_mask
        pad_tail = self._pad_tail
        erased = PageState.ERASED
        programmed = PageState.PROGRAMMED
        ecc_t = self.ecc.correctable_bits
        read_us = self._read_us
        read_bus_us = self._read_bus_us
        read_nbytes = page_size + oob_size
        lsb_us = self._program_lsb_us
        msb_us = self._program_msb_us
        reprogram_us = self._reprogram_us
        erase_us = self.latency.erase_us
        bus_per = self._bus_us_per_byte
        mode_name = self.mode.value
        check_block = self.geometry.check_block
        scratch_data = self._scratch_data
        scratch_oob = self._scratch_oob
        np_frombuffer = np.frombuffer
        np_or = np.bitwise_or
        uint8 = np.uint8
        apply_interference = self._apply_interference
        stats = self.stats

        clock = self.clock
        now = clock.now_us
        read_t = clock.category_us("read")
        prog_t = clock.category_us("program")
        erase_t = clock.category_us("erase")
        bus_t = clock.category_us("bus")
        n_reads = 0
        n_progs = 0
        n_reprogs = 0
        n_erases = 0
        b_read = 0
        b_prog = 0
        ecc_corr = 0
        ecc_unc = 0

        index = 0
        try:
            for index, (
                kind,
                target,
                offset,
                dpos,
                dlen,
                ooff,
                opos,
                olen,
            ) in enumerate(rows):
                if kind == OP_READ or kind == OP_COPY:
                    # A copy row is read_page_with_oob(data_pos) followed
                    # by program_page(target, data, oob), check for check
                    # and charge for charge: it shares the sense with the
                    # read row, then stores buffer to buffer.
                    ppn = target if kind == OP_READ else dpos
                    if not 0 <= ppn < total_pages:
                        raise IllegalAddressError(
                            f"ppn {ppn} out of range [0, {total_pages})"
                        )
                    source = pages_flat[ppn]
                    if source.state is programmed:
                        worst = source._disturb_worst
                        if worst > ecc_t:
                            # The sense happened: charge it, count the
                            # event, then fail — mirrors FlashChip._read.
                            now += read_us
                            read_t += read_us
                            n_reads += 1
                            ecc_unc += 1
                            raise EccUncorrectableError(
                                f"codeword with {worst} bit errors exceeds "
                                f"t={ecc_t}",
                                bit_errors=worst,
                            )
                        ecc_corr += source._disturb_total
                    now += read_us
                    now += read_bus_us
                    read_t += read_us
                    bus_t += read_bus_us
                    n_reads += 1
                    b_read += read_nbytes
                    if kind == OP_READ:
                        out_append(bytes(source._data))
                        continue
                    if not 0 <= target < total_pages:
                        raise IllegalAddressError(
                            f"ppn {target} out of range [0, {total_pages})"
                        )
                    block_idx = target // ppb
                    page_idx = target - block_idx * ppb
                    if blocks[block_idx].is_bad:
                        raise BadBlockError(f"block {block_idx} is retired")
                    if not usable[page_idx]:
                        raise ModeViolationError(
                            f"page {page_idx} in block {block_idx} is not "
                            f"usable in {mode_name} mode"
                        )
                    page = pages_flat[target]
                    if page.state is not erased:
                        raise WriteToProgrammedPageError(
                            "plain program of a programmed page; "
                            "reprogram() is explicit"
                        )
                    page._data[:] = source._data
                    page._oob[:] = source._oob
                    page.state = programmed
                    page.program_passes = 1
                    op_us = lsb_us if lsb[page_idx] else msb_us
                    n_progs += 1
                    now += op_us
                    now += read_bus_us
                    prog_t += op_us
                    bus_t += read_bus_us
                    b_prog += read_nbytes
                    apply_interference(block_idx, page_idx, False)
                elif kind == OP_PROGRAM or kind == OP_REPROGRAM:
                    if not 0 <= target < total_pages:
                        raise IllegalAddressError(
                            f"ppn {target} out of range [0, {total_pages})"
                        )
                    block_idx = target // ppb
                    page_idx = target - block_idx * ppb
                    block = blocks[block_idx]
                    if block.is_bad:
                        raise BadBlockError(f"block {block_idx} is retired")
                    reprogram = kind == OP_REPROGRAM
                    if reprogram:
                        if not appendable[page_idx]:
                            raise ModeViolationError(
                                f"page {page_idx} may not be reprogrammed in "
                                f"{mode_name} mode"
                            )
                    elif not usable[page_idx]:
                        raise ModeViolationError(
                            f"page {page_idx} in block {block_idx} is not "
                            f"usable in {mode_name} mode"
                        )
                    if dlen < 0:
                        dlen = 0
                    data: bytes | memoryview
                    if dlen == page_size:
                        data = heap[dpos : dpos + dlen]
                    elif dlen < page_size:
                        data = bytes(heap[dpos : dpos + dlen]) + pad_tail[dlen:]
                    else:
                        raise ValueError(
                            f"data of {dlen} B exceeds page size {page_size}"
                        )
                    page = pages_flat[target]
                    if reprogram:
                        # Inlined PhysicalPage.reprogram: sizes, then data
                        # legality, then OOB legality, then mutate.
                        if olen >= 0 and olen != oob_size:
                            raise ValueError(
                                f"oob must be exactly {oob_size} bytes, "
                                f"got {olen}"
                            )
                        # Legality via set-union compare: new is reachable
                        # iff its set bits are a subset of the old image's,
                        # i.e. ``new | old == old``.  The OR into scratch
                        # plus a bytes memcmp beats ``(new & ~old).any()``
                        # by ~2 us/page (ndarray.any() on uint8 is slow).
                        old_np = page._data_np
                        new_u8 = np_frombuffer(data, dtype=uint8)
                        np_or(new_u8, old_np, out=scratch_data)
                        if bytes(scratch_data) != page._data:
                            off = first_illegal_offset(old_np, new_u8)
                            raise IllegalProgramError(
                                f"reprogram needs erase: data byte {off} "
                                f"sets a cleared bit",
                                first_bad_offset=off,
                            )
                        oob: memoryview | None
                        if olen >= 0:
                            oob = heap[opos : opos + olen]
                            oob_u8 = np_frombuffer(oob, dtype=uint8)
                            np_or(oob_u8, page._oob_np, out=scratch_oob)
                            if bytes(scratch_oob) != page._oob:
                                off = first_illegal_offset(
                                    page._oob_np, oob_u8
                                )
                                raise IllegalProgramError(
                                    f"reprogram needs erase: OOB byte {off} "
                                    f"sets a cleared bit",
                                    first_bad_offset=off,
                                )
                            page._oob[:] = oob
                            nbytes = page_size + olen
                        else:
                            nbytes = page_size
                        page._data[:] = data
                        page.state = programmed
                        page.program_passes += 1
                        op_us = reprogram_us
                        n_reprogs += 1
                    else:
                        # Inlined PhysicalPage.program: state, sizes, mutate.
                        if page.state is not erased:
                            raise WriteToProgrammedPageError(
                                "plain program of a programmed page; "
                                "reprogram() is explicit"
                            )
                        if olen >= 0:
                            if olen != oob_size:
                                raise ValueError(
                                    f"oob must be exactly {oob_size} bytes, "
                                    f"got {olen}"
                                )
                            page._oob[:] = heap[opos : opos + olen]
                            nbytes = page_size + olen
                        else:
                            nbytes = page_size
                        page._data[:] = data
                        page.state = programmed
                        page.program_passes = 1
                        if lsb[page_idx]:
                            op_us = lsb_us
                        else:
                            op_us = msb_us
                        n_progs += 1
                    now += op_us
                    now += nbytes * bus_per
                    prog_t += op_us
                    bus_t += nbytes * bus_per
                    b_prog += nbytes
                    apply_interference(block_idx, page_idx, reprogram)
                elif kind == OP_PARTIAL:
                    if not 0 <= target < total_pages:
                        raise IllegalAddressError(
                            f"ppn {target} out of range [0, {total_pages})"
                        )
                    block_idx = target // ppb
                    page_idx = target - block_idx * ppb
                    page = pages_flat[target]
                    if dlen < 0:
                        dlen = 0
                    if offset < 0 or offset + dlen > page_size:
                        raise ValueError(
                            f"range [{offset}, {offset + dlen}) exceeds page "
                            f"size {page_size}"
                        )
                    # Inlined check_append_target: the range is erased iff
                    # it memcmp-equals an all-FF run of the same length
                    # (pad_tail is page_size bytes of 0xFF).  ~16x faster
                    # than the strip() scan on multi-KB append ranges.
                    if page._data[offset : offset + dlen] != pad_tail[:dlen]:
                        raise IllegalProgramError(
                            f"append target [{offset}, {offset + dlen}) is "
                            f"not erased",
                            first_bad_offset=offset,
                        )
                    oob_arg: bytes | None
                    if olen >= 0:
                        if ooff < 0:
                            raise ValueError("oob_payload requires oob_offset")
                        if ooff + olen > oob_size:
                            raise ValueError("OOB range out of bounds")
                        oob_arg = bytes(heap[opos : opos + olen])
                    else:
                        oob_arg = None
                    if blocks[block_idx].is_bad:
                        raise BadBlockError(f"block {block_idx} is retired")
                    if not appendable[page_idx]:
                        raise ModeViolationError(
                            f"page {page_idx} may not be reprogrammed in "
                            f"{mode_name} mode"
                        )
                    # Inlined append_range: OOB legality gates everything,
                    # so a failing partial mutates nothing.
                    if oob_arg is not None:
                        old = page._oob[ooff : ooff + olen]
                        if int.from_bytes(oob_arg, "little") & ~int.from_bytes(
                            old, "little"
                        ):
                            off = ooff + first_illegal_offset(old, oob_arg)
                            raise IllegalProgramError(
                                f"reprogram needs erase: OOB byte {off} "
                                f"sets a cleared bit",
                                first_bad_offset=off,
                            )
                        page._oob[ooff : ooff + olen] = oob_arg
                    page._data[offset : offset + dlen] = heap[dpos : dpos + dlen]
                    page.state = programmed
                    page.program_passes += 1
                    transferred = dlen + (olen if olen >= 0 else 0)
                    now += reprogram_us
                    now += transferred * bus_per
                    prog_t += reprogram_us
                    bus_t += transferred * bus_per
                    n_reprogs += 1
                    b_prog += transferred
                    apply_interference(block_idx, page_idx, True)
                elif kind == OP_ERASE:
                    check_block(target)
                    blocks[target].erase()
                    now += erase_us
                    erase_t += erase_us
                    n_erases += 1
                else:
                    raise ValueError(f"unknown op code {kind}")
        except Exception as exc:
            exc.batch_ops_completed = index  # type: ignore[attr-defined]
            exc.batch_results = out  # type: ignore[attr-defined]
            raise
        finally:
            categories: dict[str, float] = {}
            if n_reads:
                categories["read"] = read_t
            if n_progs or n_reprogs:
                categories["program"] = prog_t
            if b_read or n_progs or n_reprogs:
                categories["bus"] = bus_t
            if n_erases:
                categories["erase"] = erase_t
            clock.commit_batch(now, categories)
            stats.page_reads += n_reads
            stats.page_programs += n_progs
            stats.page_reprograms += n_reprogs
            stats.block_erases += n_erases
            stats.bytes_read += b_read
            stats.bytes_programmed += b_prog
            stats.ecc_corrected_bits += ecc_corr
            stats.ecc_uncorrectable_events += ecc_unc
        return out

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _pad(self, data: bytes) -> bytes:
        """Right-pad short images with erased bytes to full page size."""
        size = self.geometry.page_size
        n = len(data)
        if n == size:
            return bytes(data)
        if n > size:
            raise ValueError(f"data of {n} B exceeds page size {size}")
        return bytes(data) + self._pad_tail[n:]

    def _charge_program(
        self,
        block_idx: int,
        page_idx: int,
        nbytes: int,
        reprogram: bool,
        partial: bool = False,
    ) -> None:
        """Latency, stats, tracing and interference of one program pulse.

        Shared by ``program_page``, ``reprogram_page`` and
        ``partial_program`` (which charges only the transferred bytes) so
        the three accounting paths cannot drift.  The write ledger is
        charged here — the single site that increments the program
        counters — so per-cause attribution stays conservation-exact.
        """
        stats = self.stats
        if reprogram:
            op_us = self._reprogram_us
            stats.page_reprograms += 1
        elif self._lsb_mask[page_idx]:
            op_us = self._program_lsb_us
            stats.page_programs += 1
        else:
            op_us = self._program_msb_us
            stats.page_programs += 1
        stats.bytes_programmed += nbytes
        # SimClock.advance_pair(op_us, "program", bus_us, "bus"), same
        # additions in the same order, without the frame.
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
        tr = self.tracer
        if tr.enabled and getattr(tr, "trace_chip_ops", False):
            tr.record(
                "chip_reprogram" if reprogram else "chip_program",
                dur_us=op_us,
                block=block_idx,
                page=page_idx,
            )
        self._apply_interference(block_idx, page_idx, reprogram)

    def _apply_interference(
        self, block_idx: int, page_idx: int, reprogram: bool
    ) -> None:
        pages = self.blocks[block_idx].pages
        programmed = PageState.PROGRAMMED
        victims = [
            p for v in self._victims[page_idx]
            if (p := pages[v]).state is programmed
        ]
        if not victims:
            return
        rows = self._disturb.draw(reprogram, len(victims))
        if rows is None:
            return  # all zero: 99.9 % of draws at realistic rates
        for victim, row in zip(victims, rows):
            flips = sum(row)
            if flips:
                victim.add_disturb(np.array(row, dtype=np.int64))
                self.stats.disturb_bit_flips += flips
