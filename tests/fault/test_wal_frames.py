"""Commit-frame durability: torn appends must never decode as committed.

The WAL flushes one frame per commit; a frame split across a page
boundary is written with two ``partial_program`` calls.  A power loss
between them leaves the frame header and a payload prefix on the device
— bytes that *look* like log content but fail the length/CRC check.
These tests pin down that the device scan rejects exactly those, and
that durability is decided by the device rather than any volatile
cursor (a fresh ``WriteAheadLog`` over the surviving chip sees the same
committed prefix the crashed instance would have).
"""

import random

import pytest

from repro.engine.wal import (
    FRAME_HEADER_SIZE,
    PageUpdateRecord,
    WriteAheadLog,
    decode_frames,
    decode_records,
    encode_frame,
)
from repro.fault import FaultInjector, PowerLossError
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.flash.page import PageState
from tests.reference.wal import ref_runs, ref_update_encode

GEO = FlashGeometry(page_size=64, oob_size=16, pages_per_block=4, blocks=4)


def make_wal() -> WriteAheadLog:
    return WriteAheadLog(FlashChip(GEO))


def changes(n: int, base: int = 30) -> dict:
    return {base + i: (i * 7 + 1) % 256 for i in range(n)}


def runs(n: int, base: int = 30) -> list:
    return ref_runs(changes(n, base))


class TestFrameCodec:
    def test_round_trip(self):
        p1, p2 = b"alpha", b"beta-longer-payload"
        stream = encode_frame(p1) + encode_frame(p2)
        assert decode_frames(stream) == [p1, p2]

    def test_truncated_frame_rejected(self):
        p1, p2 = b"alpha", b"beta-longer-payload"
        stream = encode_frame(p1) + encode_frame(p2)[:-3]
        assert decode_frames(stream) == [p1]

    def test_torn_header_rejected(self):
        stream = encode_frame(b"alpha") + encode_frame(b"beta")[: FRAME_HEADER_SIZE - 2]
        assert decode_frames(stream) == [b"alpha"]

    def test_corrupt_payload_fails_crc(self):
        frame = bytearray(encode_frame(b"payload-bytes"))
        frame[-1] ^= 0x01
        assert decode_frames(bytes(frame)) == []

    def test_erased_tail_terminates(self):
        stream = encode_frame(b"alpha") + b"\xff" * 30
        assert decode_frames(stream) == [b"alpha"]


class TestTornCommitAcrossPageBoundary:
    def _committed_then_torn(self, tear_seed_filter):
        """Commit txn1; tear txn2's page-straddling frame; return the chip.

        The second commit's frame is sized to straddle the first page
        boundary, so the flush issues two partial programs.  The injector
        tears the FIRST chunk with a seed chosen so the chunk lands in
        full — the strongest case: every byte the crashed flush wrote is
        on the device, and the frame must still not decode.
        """
        wal = make_wal()
        wal.log_update(1, 0, runs(3))
        wal.commit()
        first = wal.durable_records()
        assert len(first) == 1

        space_left = GEO.page_size - wal._page_offset
        payload = ref_update_encode(
            PageUpdateRecord(2, 1, tuple(sorted(changes(30).items())))
        )
        frame_len = FRAME_HEADER_SIZE + len(payload)
        assert frame_len > space_left, "frame must straddle the page boundary"

        seed = next(
            s for s in range(10_000)
            if tear_seed_filter(random.Random(s).randrange(space_left + 1), space_left)
        )
        wal.log_update(2, 1, runs(30))
        FaultInjector(crash_after_ops=1, seed=seed).attach(wal.chip)
        with pytest.raises(PowerLossError):
            wal.commit()
        FaultInjector.detach(wal.chip)
        return wal.chip, first

    def test_fully_landed_first_chunk_is_not_committed(self):
        chip, first = self._committed_then_torn(lambda cut, total: cut == total)
        remounted = WriteAheadLog(chip)
        assert decode_records(b"".join(remounted.durable_frames())) == first

    def test_partially_landed_first_chunk_is_not_committed(self):
        chip, first = self._committed_then_torn(lambda cut, total: 0 < cut < total)
        remounted = WriteAheadLog(chip)
        assert decode_records(b"".join(remounted.durable_frames())) == first


class TestDeviceTruthDurability:
    def test_fresh_instance_sees_same_committed_prefix(self):
        wal = make_wal()
        wal.log_update(1, 0, runs(2))
        wal.commit()
        wal.log_update(2, 1, runs(4))
        wal.commit()
        fresh = WriteAheadLog(wal.chip)
        assert fresh.durable_records() == wal.durable_records()
        assert len(fresh.durable_frames()) == 2

    def test_fresh_instance_appends_without_clobbering(self):
        wal = make_wal()
        wal.log_update(1, 0, runs(2))
        wal.commit()
        fresh = WriteAheadLog(wal.chip)
        fresh.log_update(2, 1, runs(2))
        fresh.commit()
        final = WriteAheadLog(wal.chip)
        records = final.durable_records()
        assert [r.lsn for r in records] == [1, 2]

    def test_uncommitted_buffer_is_volatile(self):
        wal = make_wal()
        wal.log_update(1, 0, runs(2))
        assert WriteAheadLog(wal.chip).durable_records() == []
        wal.crash()
        wal.commit()  # empty buffer: nothing to flush
        assert WriteAheadLog(wal.chip).durable_records() == []


class TestTornFirstAppend:
    """A torn first commit leaves its landed bytes on an erased log page.

    The page must read ``PROGRAMMED`` afterwards, as after a whole
    pulse: the mount scan finds the log end by page state, and a page
    left ``ERASED`` with bytes on its cells made the next commit append
    over them (``IllegalProgramError``).
    """

    @pytest.mark.parametrize("seed", range(6))
    def test_remount_appends_past_the_surviving_bytes(self, seed):
        chip = FlashChip(FlashGeometry(512, 16, 8, 8))
        wal = WriteAheadLog(chip)
        FaultInjector(crash_after_ops=1, seed=seed).attach(chip)
        wal.log_update(1, 3, runs(2))
        with pytest.raises(PowerLossError):
            wal.commit()
        FaultInjector.detach(chip)
        page = chip.page_at(0)
        torn = page.raw_data().rstrip(b"\xff")
        assert torn
        assert page.state is PageState.PROGRAMMED
        assert page.program_passes == 1
        remounted = WriteAheadLog(chip)
        assert (remounted._page_index, remounted._page_offset) == (0, len(torn))
        remounted.log_update(2, 3, runs(2))
        remounted.commit()
        record = PageUpdateRecord(2, 3, tuple(sorted(changes(2).items())))
        frame = encode_frame(ref_update_encode(record))
        assert page.raw_data()[: len(torn) + len(frame)] == torn + frame


class TestRemountAfterAFrameEndingInErasedBytes:
    """A committed frame may end in 0xFF bytes: an update record whose
    last change writes 0xFF (a negative INT64's top byte sorts last).
    Mounting put the cursor at the last non-0xFF byte, so the next
    append programmed over the frame's tail — a legal program, as the
    byte reads erased — and broke its CRC, losing the commit."""

    def test_the_next_append_starts_after_the_frame(self):
        chip = FlashChip(GEO)
        wal = WriteAheadLog(chip)
        wal.log_update(1, 3, [(40, b"\x12\xff")])
        wal.commit()
        record = PageUpdateRecord(1, 3, ((40, 0x12), (41, 0xFF)))
        frame = encode_frame(ref_update_encode(record))
        assert frame.endswith(b"\xff") and len(frame) == 30
        before = chip.clock.now_us
        remounted = WriteAheadLog(chip)
        assert chip.clock.now_us == before  # mounting is not simulated I/O
        assert (remounted._page_index, remounted._page_offset) == (0, 30)
        remounted.log_update(2, 3, [(50, b"\x01")])
        remounted.commit()
        assert [r.lsn for r in WriteAheadLog(chip).durable_records()] == [1, 2]

    def test_a_frame_ending_in_0xff_at_a_page_end(self):
        """The frame fills its page to the last byte: the cursor sits at
        the page end and the next append opens the next page."""
        # 9 B frame head + 15 B record head + 16 changes x 3 B = 72 B.
        chip = FlashChip(FlashGeometry(72, 16, 4, 4))
        wal = WriteAheadLog(chip)
        wal.log_update(1, 3, [(40, bytes(range(1, 16)) + b"\xff")])
        wal.commit()
        assert chip.page_at(0).raw_data().endswith(b"\xff")
        remounted = WriteAheadLog(chip)
        assert (remounted._page_index, remounted._page_offset) == (0, 72)
        remounted.log_update(2, 3, [(50, b"\x01")])
        remounted.commit()
        assert [r.lsn for r in WriteAheadLog(chip).durable_records()] == [1, 2]
