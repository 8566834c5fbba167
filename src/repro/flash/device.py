"""Multi-channel flash device: N chips striped into parallel channels.

The OpenSSD boards the paper targets overlap flash array operations
across channels/ways; the simulator originally executed every operation
serially on one chip, so GC erases and page programs stalled the host
for their full array latency.  :class:`FlashDevice` restores the
parallelism: it owns ``channels`` independent :class:`FlashChip`\\ s,
stripes erase blocks round-robin across them (global block ``b`` lives
on chip ``b % channels``), and schedules operations per channel on the
*simulated* clock.

Scheduling model:

* The **host clock** (``device.clock``) is what experiments measure.
  The bus is shared: every transfer's bus time is charged to the host
  serially, exactly as on the single chip.
* The **array time** of a program / reprogram / partial program / erase
  does not block the host.  It occupies the target channel: the op
  starts when both its bus transfer and the channel's previous op have
  finished, and the channel is busy until ``start + op_us``.
* Each channel has a bounded in-flight queue (``queue_depth``).  A
  program issued to a full queue stalls the host until the oldest op
  completes.  Reads have priority: a read jumps ahead of queued pulses
  that have not started yet (pushing them back by its sense time) and
  waits only for a pulse already executing on the die.  Stalls are
  charged to the host clock under the ``"channel_wait"`` category and
  recorded as ``channel_wait`` trace events, which is how GC pressure
  on a busy channel is attributed separately from synchronous erases.

A device has two or more channels: one channel is a bare
:class:`FlashChip`, which every stack builder uses for ``channels == 1``.

Cell-model fidelity: striping only renames blocks.  Every mutation is
applied to the chips at issue time in host order, per-channel order is
FIFO, and each chip runs the same deterministic disturb model (chip
``i`` is seeded ``seed + 0x9E37 * i`` so channel 0 matches a bare chip).

Power loss (:mod:`repro.fault`): when a :class:`FaultInjector` is
attached, every issued array op additionally records an *undo* image.
:meth:`power_loss` tears the per-channel in-flight window — operations
that had not started at the moment of the crash are reverted entirely;
the operation executing on each channel is re-torn at an injector-seeded
byte cut (erases fall back to the before/after coin) — so the surviving
media is exactly what a real multi-channel device would leave behind.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Iterator

from repro.flash.chip import FlashChip, copy_pages
from repro.flash.ecc import DEFAULT_ECC, EccConfig
from repro.flash.errors import IllegalAddressError
from repro.flash.geometry import FlashGeometry
from repro.flash.latency import DEFAULT_LATENCY, LatencyModel, SimClock
from repro.flash.modes import FlashMode
from repro.flash.stats import FlashStats
from repro.obs.ledger import WriteLedger
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer

if TYPE_CHECKING:
    from repro.fault.injector import FaultInjector
    from repro.flash.block import EraseBlock
    from repro.flash.page import PageState, PhysicalPage

#: Seed stride between chips: keeps every chip's disturb stream distinct
#: while chip 0 stays identical to a bare chip built with ``seed``.
_SEED_STRIDE = 0x9E37


class _Pulse:
    """One scheduled array pulse: when it starts and ends on the sim
    clock, and its undo recipe (fault injection only, else None)."""

    __slots__ = ("start_us", "end_us", "undo")

    def __init__(self, start_us: float, end_us: float, undo: tuple | None) -> None:
        self.start_us = start_us
        self.end_us = end_us
        self.undo = undo


class _Channel:
    """Scheduler state of one channel (one chip)."""

    __slots__ = ("index", "chip", "busy_until_us", "inflight", "ops",
                 "busy_us", "wait_us")

    def __init__(self, index: int, chip: FlashChip) -> None:
        self.index = index
        self.chip = chip
        self.busy_until_us = 0.0
        #: In-flight pulses, oldest first.  End times are non-decreasing
        #: (each pulse starts no earlier than its predecessor's end, and
        #: a read slips every queued pulse alike), so draining completed
        #: pulses pops from the left.
        self.inflight: deque[_Pulse] = deque()
        self.ops = 0
        self.busy_us = 0.0
        self.wait_us = 0.0


class _StripedBlocks:
    """Sequence view presenting the chips' blocks in global block order."""

    __slots__ = ("_chips", "_total")

    def __init__(self, chips: list[FlashChip], total: int) -> None:
        self._chips = chips
        self._total = total

    def __len__(self) -> int:
        return self._total

    def __getitem__(self, idx: int | slice) -> EraseBlock | list[EraseBlock]:
        if isinstance(idx, slice):
            return [self[i] for i in range(*idx.indices(self._total))]
        if idx < 0:
            idx += self._total
        if not 0 <= idx < self._total:
            raise IndexError(f"block {idx} out of range [0, {self._total})")
        n = len(self._chips)
        return self._chips[idx % n].blocks[idx // n]

    def __iter__(self) -> Iterator[EraseBlock]:
        return (self[i] for i in range(self._total))


class FlashDevice:
    """N flash chips behind one chip-shaped interface.

    Drop-in replacement for :class:`FlashChip` wherever the FTLs expect
    one (same operations, ``geometry`` / ``blocks`` / ``stats`` /
    ``clock`` surface), with channel-parallel latency scheduling.

    Args:
        geometry: *Global* geometry; ``blocks`` must divide evenly into
            ``channels`` (each chip gets ``blocks // channels``).
        channels: Number of channels (= chips), at least 2.
        mode / latency / ecc / seed / endurance_limit: Forwarded to every
            chip (per-chip seeds are strided; see module docstring).
        clock: Host clock; a fresh :class:`SimClock` if omitted.
        queue_depth: In-flight array ops tolerated per channel before a
            new program stalls the host.
    """

    #: Observability: replaced per-instance by :meth:`attach`.
    tracer = NULL_TRACER

    def __init__(
        self,
        geometry: FlashGeometry,
        channels: int = 2,
        mode: FlashMode = FlashMode.SLC,
        latency: LatencyModel = DEFAULT_LATENCY,
        clock: SimClock | None = None,
        ecc: EccConfig = DEFAULT_ECC,
        seed: int = 0xF1A5,
        endurance_limit: int | None = None,
        queue_depth: int = 4,
    ) -> None:
        if channels < 2:
            raise ValueError(
                f"channels must be >= 2, got {channels}: "
                f"a one-channel device is a FlashChip"
            )
        if geometry.blocks % channels:
            raise ValueError(
                f"{geometry.blocks} blocks do not stripe evenly over "
                f"{channels} channels"
            )
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        self.geometry = geometry
        self.mode = mode
        self.latency = latency
        self.ecc = ecc
        self.clock = clock if clock is not None else SimClock()
        self.queue_depth = queue_depth
        chip_geometry = FlashGeometry(
            page_size=geometry.page_size,
            oob_size=geometry.oob_size,
            pages_per_block=geometry.pages_per_block,
            blocks=geometry.blocks // channels,
        )
        self.chips = [
            FlashChip(
                chip_geometry,
                mode=mode,
                latency=latency,
                # Each op is measured on a private per-chip clock and
                # charged to the host by the scheduler.
                clock=SimClock(),
                ecc=ecc,
                seed=seed + _SEED_STRIDE * i,
                endurance_limit=endurance_limit,
            )
            for i in range(channels)
        ]
        self.rules = self.chips[0].rules
        self._channels = [
            _Channel(i, chip) for i, chip in enumerate(self.chips)
        ]
        self._ppb = geometry.pages_per_block
        self._total_pages = geometry.total_pages
        self.blocks = _StripedBlocks(self.chips, geometry.blocks)
        self._usable_offsets = self.chips[0].usable_pages_in_block()
        self._fault_injector = None

    # ------------------------------------------------------------------ #
    # Chip-compatible queries
    # ------------------------------------------------------------------ #

    @property
    def channels(self) -> int:
        """Number of channels (= chips)."""
        return len(self._channels)

    @property
    def stats(self) -> FlashStats:
        """Device-wide aggregate of every chip's counters (fresh copy)."""
        return FlashStats.total(chip.stats for chip in self.chips)

    @property
    def fault_injector(self) -> FaultInjector | None:
        return self._fault_injector

    @fault_injector.setter
    def fault_injector(self, injector: FaultInjector | None) -> None:
        """Forward attachment to every chip (``FaultInjector.attach``)."""
        self._fault_injector = injector
        for chip in self.chips:
            chip.fault_injector = injector

    def usable_pages_in_block(self) -> list[int]:
        """Page-in-block indexes usable under the current mode."""
        return list(self._usable_offsets)

    @property
    def usable_capacity_pages(self) -> int:
        """Total pages available to store data in the current mode."""
        return len(self._usable_offsets) * self.geometry.blocks

    def page_at(self, ppn: int) -> PhysicalPage:
        """The :class:`PhysicalPage` behind a *global* physical page number."""
        channel, local_ppn = self._route_ppn(ppn)
        return channel.chip.page_at(local_ppn)

    def page_state(self, ppn: int) -> PageState:
        """Programming state of a page without charging read latency."""
        return self.page_at(ppn).state

    # ------------------------------------------------------------------ #
    # Channel introspection (observability)
    # ------------------------------------------------------------------ #

    def queue_depth_of(self, index: int) -> int:
        """In-flight array ops on one channel at the current sim time."""
        channel = self._channels[index]
        self._drain(channel)
        return len(channel.inflight)

    def channel_stats(self) -> list[dict]:
        """Per-channel scheduler counters (ops, busy/wait time, queue)."""
        return [
            {
                "channel": ch.index,
                "ops": ch.ops,
                "busy_us": ch.busy_us,
                "wait_us": ch.wait_us,
                "queue_depth": self.queue_depth_of(ch.index),
            }
            for ch in self._channels
        ]

    # ------------------------------------------------------------------ #
    # Core operations
    # ------------------------------------------------------------------ #

    def read_page(self, ppn: int) -> bytes:
        """Read a page (jumps queued pulses; waits out an executing one)."""
        return bytes(self._sense(ppn)._data)

    def read_page_with_oob(self, ppn: int) -> tuple[bytes, bytes]:
        """Read a page's data and OOB areas."""
        page = self._sense(ppn)
        return bytes(page._data), bytes(page._oob)

    def _sense(self, ppn: int) -> PhysicalPage:
        """The chip's sense body, scheduled on the page's channel."""
        channel, local_ppn = self._route_ppn(ppn)
        chip = channel.chip
        self._wait_for_sense(channel)
        clk = chip.clock
        clk.reset()
        try:
            return chip._sense(local_ppn)
        finally:
            self._charge_read(channel, clk)

    def program_page(self, ppn: int, data: bytes, oob: bytes | None = None) -> None:
        """First-time program; the array pulse overlaps with the host."""
        channel, local_ppn = self._route_ppn(ppn)
        chip = channel.chip
        self._issue_array_op(
            channel,
            "program",
            lambda: chip._program(local_ppn, data, oob),
            lambda: self._program_undo(chip, local_ppn, data, oob),
        )

    def reprogram_page(self, ppn: int, data: bytes, oob: bytes | None = None) -> None:
        """In-place overwrite; the array pulse overlaps with the host."""
        channel, local_ppn = self._route_ppn(ppn)
        chip = channel.chip
        self._issue_array_op(
            channel,
            "reprogram",
            lambda: chip._reprogram(local_ppn, data, oob),
            lambda: self._program_undo(chip, local_ppn, data, oob),
        )

    def partial_program(
        self,
        ppn: int,
        offset: int,
        payload: bytes,
        oob_offset: int | None = None,
        oob_payload: bytes | None = None,
    ) -> None:
        """Program a byte range (write_delta's device half)."""
        channel, local_ppn = self._route_ppn(ppn)
        chip = channel.chip
        self._issue_array_op(
            channel,
            "partial_program",
            lambda: chip._partial(
                local_ppn, offset, payload, oob_offset, oob_payload
            ),
            lambda: (
                "partial",
                chip.page_at(local_ppn),
                chip.page_at(local_ppn).snapshot_image(),
                offset,
                bytes(payload),
                oob_offset,
                None if oob_payload is None else bytes(oob_payload),
            ),
        )

    def erase_block(self, block_idx: int) -> None:
        """Erase one global block; the pulse never blocks the host."""
        channel, local_block = self._route_block(block_idx)
        chip = channel.chip
        self._issue_array_op(
            channel,
            "erase",
            lambda: chip._erase(local_block),
            lambda: self._erase_undo(chip, local_block),
            barrier=True,
        )

    # The program body as copy_pages reaches it, as on the chip.
    _program = program_page

    #: ``execute_batch(moves)``: :func:`repro.flash.chip.copy_pages` on
    #: this device.  Each sense and each pulse of a move goes through the
    #: channel scheduler on its own channel, exactly as the two per-op
    #: calls do.
    execute_batch = copy_pages

    # ------------------------------------------------------------------ #
    # Stack protocol (shared with FlashChip)
    # ------------------------------------------------------------------ #

    def attach(self, tracer: Tracer | NullTracer, ledger: WriteLedger) -> None:
        """Point the tracer at the scheduler and both observers at every
        chip: the device records channel events, the chips charge (and
        the ledger watches) the operations themselves."""
        self.tracer = tracer
        for chip in self.chips:
            chip.attach(tracer, ledger)

    def sync(self) -> None:
        """Flush barrier: block the host until every in-flight pulse ends.

        The WAL calls this after each log append so a commit
        acknowledgement implies the array pulses behind it have
        *finished* — without the barrier an acked commit frame could
        still be in flight on its channel at a power loss and be
        reverted by :meth:`power_loss`, silently un-committing a durable
        transaction.  The stall is charged to the host clock under
        ``channel_wait``, exactly like a queue-full stall: durability
        has an honest latency cost.  Unlike :meth:`quiesce` this is safe
        on crash paths — it advances time instead of discarding undo
        state.
        """
        for channel in self._channels:
            self._drain(channel)
            if channel.inflight:
                self._stall(channel, channel.inflight[-1].end_us, "sync")
                self._drain(channel)

    def quiesce(self) -> None:
        """Drop all scheduling state: queues empty, channels idle *now*.

        For callers that reset the host clock between phases (the bench
        harness zeroes it after the load phase): in-flight end times and
        ``busy_until_us`` were computed against the old clock and would
        otherwise read as a giant future backlog, stalling the first
        measured operations behind load-phase work.  Media is untouched
        — every mutation was applied at issue time.  Not for crash
        paths: :meth:`power_loss` needs the in-flight window intact.
        """
        for channel in self._channels:
            channel.inflight.clear()
            channel.busy_until_us = self.clock.now_us

    # ------------------------------------------------------------------ #
    # Power loss (fault injection)
    # ------------------------------------------------------------------ #

    def power_loss(self) -> None:
        """Tear every in-flight array op after a simulated power loss.

        Idempotent; called by the fault harness when
        :class:`~repro.fault.injector.PowerLossError` unwinds through it
        (the injector may have tripped on *any* attached chip — the WAL
        chip included — so the device cannot rely on seeing the
        exception itself).  Per channel, newest first: operations that
        had not started at the crash instant are reverted to their
        pre-images; the operation executing on the channel is re-torn at
        an injector-seeded byte cut (erases: before/after coin).
        """
        injector = self._fault_injector
        now = self.clock.now_us
        for channel in self._channels:
            inflight = channel.inflight
            while inflight:
                pulse = inflight.pop()
                if pulse.end_us <= now or pulse.undo is None:
                    continue
                self._revert(
                    pulse.undo, started=pulse.start_us < now, injector=injector
                )
            channel.busy_until_us = min(channel.busy_until_us, now)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _route_block(self, block_idx: int) -> tuple[_Channel, int]:
        self.geometry.check_block(block_idx)
        n = len(self._channels)
        return self._channels[block_idx % n], block_idx // n

    def _route_ppn(self, ppn: int) -> tuple[_Channel, int]:
        if not 0 <= ppn < self._total_pages:
            raise IllegalAddressError(
                f"ppn {ppn} out of range [0, {self._total_pages})"
            )
        block, page = divmod(ppn, self._ppb)
        n = len(self._channels)
        return self._channels[block % n], (block // n) * self._ppb + page

    def _charge_host(self, chip_clock: SimClock) -> None:
        """Replay a measured chip-clock breakdown onto the host clock."""
        clock = self.clock
        for category, micros in chip_clock.breakdown_us.items():
            clock.advance(micros, category)

    def _drain(self, channel: _Channel) -> None:
        """Drop every completed pulse (``end <= now``) off the front."""
        inflight = channel.inflight
        now_us = self.clock.now_us
        while inflight and inflight[0].end_us <= now_us:
            inflight.popleft()

    def _stall(self, channel: _Channel, until_us: float, op: str) -> None:
        wait = until_us - self.clock.now_us
        if wait <= 0:
            return
        self.clock.advance(wait, "channel_wait")
        channel.wait_us += wait
        tr = self.tracer
        if tr.enabled:
            tr.record(
                "channel_wait", dur_us=wait, channel=channel.index, op=op
            )

    def _wait_for_sense(self, channel: _Channel) -> None:
        """Block the host until the die can sense: reads have priority.

        A read jumps ahead of queued-but-unstarted array ops (NCQ-style
        reordering — the data was already transferred and applied at
        issue time, so host-order semantics are unaffected); only a
        pulse *already executing* on the die blocks the sense, since
        program/erase cannot be interleaved with a read mid-pulse.
        """
        self._drain(channel)
        q = channel.inflight
        if q and q[0].start_us < self.clock.now_us:
            self._stall(channel, q[0].end_us, "read")
            self._drain(channel)

    def _charge_read(self, channel: _Channel, chip_clock: SimClock) -> None:
        """Charge a read to the host and push back the jumped pulses.

        The sense occupies the die for the read's array time, so every
        queued (unstarted) op — and the channel's busy horizon — slips
        by that much.
        """
        breakdown = chip_clock.breakdown_us
        self._charge_host(chip_clock)
        array_us = 0.0
        for category, micros in breakdown.items():
            if category != "bus":
                array_us += micros
        if array_us and channel.inflight:
            for pulse in channel.inflight:
                pulse.start_us += array_us
                pulse.end_us += array_us
            channel.busy_until_us += array_us
        tr = self.tracer
        if array_us and tr.enabled and tr.trace_channel_ops:
            # The sense ends *now* on the host clock (the host blocked on it).
            tr.record(
                "channel_read", dur_us=array_us,
                channel=channel.index, op="read",
                queued=len(channel.inflight),
            )

    def _issue_array_op(
        self,
        channel: _Channel,
        kind: str,
        fn: Callable[[], None],
        undo_builder: Callable[[], tuple],
        barrier: bool = False,
    ) -> None:
        """Admit, transfer, and schedule one array op on a channel.

        The chip mutates immediately (simulation state is host-order
        deterministic); only the *latency* is scheduled: bus time is
        charged to the host, array time occupies the channel.

        ``barrier`` (erases) schedules the pulse after every in-flight
        op on *every* channel: the controller drains outstanding
        programs before reclaiming a block, so a crash can never leave
        an erase completed while the program that migrated its last
        valid page is still reverted as in-flight.  The barrier costs no
        host time — it only delays the pulse on the simulated channel.
        """
        self._drain(channel)
        if len(channel.inflight) >= self.queue_depth:
            self._stall(channel, channel.inflight[0].end_us, kind)
            self._drain(channel)
        undo = undo_builder() if self._fault_injector is not None else None
        clk = channel.chip.clock
        clk.reset()
        fn()  # validation errors / PowerLossError propagate uncharged
        breakdown = clk.breakdown_us
        bus_us = breakdown.get("bus", 0.0)
        op_us = 0.0
        for category, micros in breakdown.items():
            if category != "bus":
                op_us += micros
        clock = self.clock
        if bus_us:
            clock.advance(bus_us, "bus")
        start = clock.now_us
        if channel.busy_until_us > start:
            start = channel.busy_until_us
        if barrier:
            for other in self._channels:
                if other.inflight:
                    other_end = other.inflight[-1].end_us
                    if other_end > start:
                        start = other_end
        end = start + op_us
        channel.busy_until_us = end
        channel.inflight.append(_Pulse(start, end, undo))
        channel.ops += 1
        channel.busy_us += op_us
        tr = self.tracer
        if tr.enabled and tr.trace_channel_ops:
            if bus_us:
                tr.record("bus_xfer", dur_us=bus_us,
                          channel=channel.index, op=kind)
            # The pulse may be scheduled in the host clock's future, so
            # the event carries its explicit start time.
            tr.record_at(
                "channel_op", start, op_us,
                channel=channel.index, op=kind,
                queued=len(channel.inflight),
            )

    def _program_undo(
        self, chip: FlashChip, local_ppn: int, data: bytes, oob: bytes | None
    ) -> tuple:
        page = chip.page_at(local_ppn)
        # Copies: a move's image is its source page's cell buffer.  The
        # chip pads short images; tear what it programs.
        data = bytes(data) + b"\xff" * (page.page_size - len(data))
        return (
            "program", page, page.snapshot_image(), data,
            None if oob is None else bytes(oob),
        )

    def _erase_undo(self, chip: FlashChip, local_block: int) -> tuple:
        block = chip.blocks[local_block]
        return (
            "erase",
            block,
            block.erase_count,
            block.is_bad,
            [(page, page.snapshot_image()) for page in block.pages],
        )

    def _revert(
        self, undo: tuple, started: bool, injector: FaultInjector | None
    ) -> None:
        kind = undo[0]
        if kind == "erase":
            _kind, block, erase_count, is_bad, snaps = undo
            if started and injector is not None and injector.inflight_erase_coin():
                return  # the erase pulse completed before power died
            block.erase_count = erase_count
            block.is_bad = is_bad
            for page, snap in snaps:
                page.restore_image(snap)
            return
        if kind == "program":
            _kind, page, snap, data, oob = undo
            page.restore_image(snap)
            if started and injector is not None:
                total = len(data) + (len(oob) if oob is not None else 0)
                page.apply_torn_program(data, oob, injector.inflight_cut(total))
            return
        _kind, page, snap, offset, payload, oob_offset, oob_payload = undo
        page.restore_image(snap)
        if started and injector is not None:
            total = len(payload) + (
                len(oob_payload) if oob_payload is not None else 0
            )
            page.apply_torn_range(
                offset, payload, oob_offset, oob_payload,
                injector.inflight_cut(total),
            )
