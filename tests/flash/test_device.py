"""FlashDevice scheduler invariants: striping, ordering, fidelity, faults.

Three properties carry the multi-channel design:

1. One channel is refused: a one-channel device is a bare
   :class:`FlashChip`, which holds the golden-fidelity guarantee.
2. Per-channel order stays FIFO, in-flight windows never
   overlap on a channel, queue depth is bounded, and host stalls are
   charged to the ``channel_wait`` clock category.
3. Power loss tears exactly the in-flight window (revert not-started,
   re-tear the executing op), and erases barrier behind every channel's
   outstanding programs.
"""

import hashlib

import numpy as np
import pytest

from repro.fault import FaultInjector, PowerLossError
from repro.flash.chip import FlashChip
from repro.flash.device import FlashDevice
from repro.flash.errors import (
    IllegalAddressError,
    IllegalProgramError,
    WriteToProgrammedPageError,
)
from repro.flash.geometry import FlashGeometry
from repro.flash.page import PageState

GEO = FlashGeometry(page_size=512, oob_size=64, pages_per_block=8, blocks=8)


def media_digest(dev) -> str:
    h = hashlib.sha256()
    for block in dev.blocks:
        for page in block.pages:
            h.update(page.raw_data())
            h.update(page.raw_oob())
            h.update(page.state.value.encode())
        h.update(block.erase_count.to_bytes(4, "little"))
    return h.hexdigest()


def mixed_workload(dev, ops=300, seed=7):
    """Deterministic program/partial/erase/read mix via the public API."""
    rng = np.random.default_rng(seed)
    usable = dev.usable_pages_in_block()
    ppb = dev.geometry.pages_per_block
    programmed = set()
    for _ in range(ops):
        op = int(rng.integers(0, 10))
        block = int(rng.integers(0, dev.geometry.blocks))
        ppn = block * ppb + usable[int(rng.integers(0, len(usable)))]
        if op < 5:
            if ppn in programmed:
                continue
            payload = rng.integers(0, 256, size=64, dtype=np.uint8).tobytes()
            dev.program_page(ppn, payload)
            programmed.add(ppn)
        elif op < 7:
            if ppn not in programmed:
                continue
            try:
                dev.partial_program(
                    ppn, 100,
                    rng.integers(0, 128, size=8, dtype=np.uint8).tobytes(),
                )
            except IllegalProgramError:
                pass  # second append to the same range; deterministic
        elif op < 8:
            dev.erase_block(block)
            programmed -= {
                block * ppb + p for p in range(ppb)
            }
        elif ppn in programmed:
            dev.read_page(ppn)


class TestSingleChannel:
    @pytest.mark.parametrize("channels", [0, 1])
    def test_fewer_than_two_channels_refused(self, channels):
        with pytest.raises(ValueError, match="a one-channel device is a FlashChip"):
            FlashDevice(GEO, channels=channels)


class TestStriping:
    def test_global_block_routing(self):
        dev = FlashDevice(GEO, channels=4)
        for b in range(GEO.blocks):
            assert dev.blocks[b] is dev.chips[b % 4].blocks[b // 4]
        assert len(dev.blocks) == GEO.blocks
        assert dev.blocks[-1] is dev.blocks[GEO.blocks - 1]

    def test_ppn_routes_with_its_block(self):
        dev = FlashDevice(GEO, channels=2)
        ppb = GEO.pages_per_block
        dev.program_page(3 * ppb + 1, b"x" * 16)
        # Global block 3 -> chip 1, local block 1.
        assert dev.chips[1].page_at(1 * ppb + 1).state is PageState.PROGRAMMED
        assert dev.page_at(3 * ppb + 1).raw_data()[:1] == b"x"

    def test_uneven_striping_rejected(self):
        with pytest.raises(ValueError):
            FlashDevice(GEO, channels=3)  # 8 blocks over 3 channels

    def test_out_of_range_ppn_raises(self):
        dev = FlashDevice(GEO, channels=2)
        with pytest.raises(IllegalAddressError):
            dev.read_page(GEO.total_pages)

    def test_stats_aggregate_across_chips(self):
        dev = FlashDevice(GEO, channels=4)
        ppb = GEO.pages_per_block
        for b in range(4):  # one program per channel
            dev.program_page(b * ppb, b"y" * 8)
        assert dev.stats.page_programs == 4
        assert sum(c.stats.page_programs for c in dev.chips) == 4
        assert all(c.stats.page_programs == 1 for c in dev.chips)


class TestOverlapScheduling:
    def test_four_channels_beat_a_bare_chip_on_spread_writes(self):
        chip = FlashChip(GEO)
        over = FlashDevice(GEO, channels=4)
        mixed_workload(chip, seed=3)
        mixed_workload(over, seed=3)
        assert media_digest(chip) == media_digest(over)  # latency-only change
        assert over.clock.now_us < chip.clock.now_us

    def test_channel_fifo_windows_stay_disjoint(self):
        dev = FlashDevice(GEO, channels=2, queue_depth=8)
        ppb = GEO.pages_per_block
        for b in range(GEO.blocks):
            for p in range(3):
                dev.program_page(b * ppb + p, b"z" * 32)
        for ch in dev._channels:
            ops = list(ch.inflight)
            for prev, cur in zip(ops, ops[1:]):
                assert cur.start_us >= prev.end_us
            assert len(ops) <= dev.queue_depth

    def test_full_queue_stalls_host_as_channel_wait(self):
        dev = FlashDevice(GEO, channels=2, queue_depth=2)
        ppb = GEO.pages_per_block
        # Five programs on channel 0 (blocks 0,2,4,6 are chip 0): the
        # third admit finds the queue full and must stall the host.
        for i, block in enumerate((0, 2, 4, 6, 0)):
            dev.program_page(block * ppb + i, b"q" * 32)
        assert dev.clock.breakdown_us.get("channel_wait", 0.0) > 0
        assert dev._channels[0].wait_us > 0
        assert dev._channels[1].wait_us == 0

    def test_read_waits_only_for_executing_pulse(self):
        dev = FlashDevice(GEO, channels=2)
        dev.program_page(0, b"r" * 32)  # block 0 -> channel 0
        # The pulse has not started executing (start == now): the read
        # jumps ahead and pushes the program back by its sense time.
        end_before = dev._channels[0].inflight[-1].end_us
        dev.read_page(0)
        assert dev.clock.breakdown_us.get("channel_wait", 0.0) == 0.0
        assert dev._channels[0].inflight[-1].end_us > end_before
        # The pushed-back pulse started while the read's bus transfer
        # ran: the die is now mid-program, so a second read must wait
        # out the remainder.
        op = dev._channels[0].inflight[-1]
        assert op.start_us < dev.clock.now_us < op.end_us
        dev.read_page(0)
        assert dev.clock.breakdown_us["channel_wait"] > 0.0

    def test_queue_depth_of_drains_completed_ops(self):
        dev = FlashDevice(GEO, channels=2)
        dev.program_page(0, b"d" * 32)
        assert dev.queue_depth_of(0) == 1
        dev.clock.advance(10_000, "host")  # far past any program pulse
        assert dev.queue_depth_of(0) == 0
        stats = dev.channel_stats()
        assert stats[0]["ops"] == 1 and stats[1]["ops"] == 0
        assert stats[0]["busy_us"] > 0

    def test_quiesce_clears_backlog_after_external_clock_reset(self):
        dev = FlashDevice(GEO, channels=2, queue_depth=8)
        for p in range(4):
            dev.program_page(p, b"w" * GEO.page_size)  # channel 0 backlog
        dev.clock.reset()  # phase boundary: end times are now all stale
        dev.quiesce()
        before = dev.clock.now_us
        dev.read_page(0)
        # No stall against the phantom backlog; only the read itself.
        assert dev.clock.breakdown_us.get("channel_wait", 0.0) == 0.0
        assert dev.clock.now_us > before
        assert dev.page_at(0).state is PageState.PROGRAMMED  # media kept

    def test_erase_barriers_behind_other_channels(self):
        dev = FlashDevice(GEO, channels=2)
        ppb = GEO.pages_per_block
        dev.program_page(0, b"e" * GEO.page_size)  # channel 0
        program_end = dev._channels[0].inflight[-1].end_us
        dev.erase_block(1)  # channel 1, empty queue — barrier applies
        erase_op = dev._channels[1].inflight[-1]
        assert erase_op.start_us >= program_end


class TestPowerLoss:
    def test_not_started_op_fully_reverted(self):
        dev = FlashDevice(GEO, channels=2, queue_depth=8)
        injector = FaultInjector(crash_after_ops=1000, seed=1)
        injector.attach(dev)
        ppb = GEO.pages_per_block
        dev.program_page(0, b"a" * 32)
        # Second program on the same channel queues behind the first:
        # its start time is in the simulated future.
        dev.program_page(2 * ppb, b"b" * 32)
        assert dev._channels[0].inflight[-1].start_us > dev.clock.now_us
        dev.power_loss()
        # The queued (not-started) op left no trace at all.
        assert dev.chips[0].page_at(1 * ppb).state is PageState.ERASED
        assert dev.chips[0].page_at(1 * ppb).raw_data() == b"\xff" * GEO.page_size

    def test_power_loss_without_injector_keeps_media(self):
        dev = FlashDevice(GEO, channels=2)
        dev.program_page(0, b"k" * 32)
        dev.power_loss()  # no undo recorded: mutation stands
        assert dev.page_at(0).state is PageState.PROGRAMMED

    def test_power_loss_is_idempotent_and_unblocks_channels(self):
        dev = FlashDevice(GEO, channels=2)
        injector = FaultInjector(crash_after_ops=1000, seed=2)
        injector.attach(dev)
        dev.program_page(0, b"i" * 32)
        dev.power_loss()
        dev.power_loss()
        for ch in dev._channels:
            assert not ch.inflight
            assert ch.busy_until_us <= dev.clock.now_us

    def test_injector_trip_mid_transfer_then_device_teardown(self):
        dev = FlashDevice(GEO, channels=2, queue_depth=8)
        injector = FaultInjector(crash_after_ops=3, seed=9)
        injector.attach(dev)
        dev.program_page(0, b"m" * 32)
        dev.program_page(GEO.pages_per_block, b"m" * 32)
        with pytest.raises(PowerLossError):
            dev.program_page(2 * GEO.pages_per_block, b"m" * 32)
        dev.power_loss()  # harness contract: teardown after the trip
        for ch in dev._channels:
            assert not ch.inflight


class TestCopyAcrossChannels:
    """A page move on an overlapped device is the two per-op calls:
    the sense is scheduled on the source's channel, the program pulse on
    the destination's."""

    PPB = GEO.pages_per_block
    SRC = 0  # block 0 -> channel 0
    DST = 1 * GEO.pages_per_block + 1  # block 1 -> channel 1

    def loaded(self):
        """Source programmed and settled; channel 1's queue full; a pulse
        queued but not started on channel 0, for the sense to jump."""
        dev = FlashDevice(GEO, channels=4, queue_depth=2)
        injector = FaultInjector(crash_after_ops=1000, seed=5).attach(dev)
        dev.program_page(self.SRC, b"s" * GEO.page_size, b"o" * GEO.oob_size)
        dev.clock.advance(1_000.0, "host")
        dev.program_page(1 * self.PPB, b"1" * 64)
        dev.program_page(5 * self.PPB, b"5" * 64)
        dev.program_page(4 * self.PPB, b"4" * 64)
        assert len(dev._channels[1].inflight) == dev.queue_depth
        return dev, injector

    @staticmethod
    def observed(dev, injector):
        return {
            "now_us": repr(dev.clock.now_us),
            "breakdown": {k: repr(v) for k, v in dev.clock.breakdown_us.items()},
            "channels": dev.channel_stats(),
            "inflight": [
                [(op.start_us, op.end_us, op.undo[0]) for op in ch.inflight]
                for ch in dev._channels
            ],
            "busy_until": [ch.busy_until_us for ch in dev._channels],
            "stats": [vars(chip.stats) for chip in dev.chips],
            "injector_ops": injector.ops_seen,
            "media": media_digest(dev),
        }

    def test_copy_is_scheduled_like_the_two_per_op_calls(self):
        ref, ref_injector = self.loaded()
        data, oob = ref.read_page_with_oob(self.SRC)
        ref.program_page(self.DST, data, oob)

        dev, injector = self.loaded()
        queued_end = dev._channels[0].inflight[-1].end_us
        dev.execute_batch([(self.SRC, self.DST)])
        assert self.observed(dev, injector) == self.observed(ref, ref_injector)
        # Channel 0 saw the sense: its queued pulse slipped by it.
        assert dev._channels[0].inflight[-1].end_us > queued_end
        assert dev.chips[0].stats.page_reads == 1
        # Channel 1 saw the pulse, after stalling the host on a full queue.
        assert dev.chips[1].stats.page_programs == 3
        assert dev._channels[1].wait_us > 0
        assert dev.clock.breakdown_us["channel_wait"] == dev._channels[1].wait_us
        assert dev.page_at(self.DST).raw_oob() == b"o" * GEO.oob_size

        # Power loss reverts the same in-flight window in the same order:
        # same media, and the injector's tear stream left at the same point.
        ref.power_loss()
        dev.power_loss()
        assert media_digest(dev) == media_digest(ref)
        assert injector._rng.getstate() == ref_injector._rng.getstate()
        assert dev.page_at(self.DST).raw_data() != b"s" * GEO.page_size

    @pytest.mark.parametrize("channels", [1, 4])
    def test_copy_onto_itself_needs_no_special_case(self, channels):
        """It is whatever the two calls do: a programmed page cannot be
        programmed again, and the sense before that is charged."""
        def build():
            return (
                FlashChip(GEO) if channels == 1
                else FlashDevice(GEO, channels=channels)
            )

        dev, ref = build(), build()
        for each in (dev, ref):
            each.program_page(3, b"x" * 32)
        with pytest.raises(WriteToProgrammedPageError):
            ref.program_page(3, *ref.read_page_with_oob(3))
        with pytest.raises(WriteToProgrammedPageError) as raised:
            dev.execute_batch([(3, 3)])
        assert raised.value.batch_ops_completed == 0
        assert repr(dev.clock.now_us) == repr(ref.clock.now_us)
        assert dev.clock.breakdown_us == ref.clock.breakdown_us
        assert vars(dev.stats) == vars(ref.stats)
        assert dev.stats.page_reads == 1 and dev.stats.page_programs == 1
