"""WAL group commit: deferred flushes, media-byte identity, crash window."""

import pytest

from repro.engine.wal import WriteAheadLog
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry


def fresh_wal(blocks=4):
    return WriteAheadLog(
        FlashChip(
            FlashGeometry(page_size=256, oob_size=16, pages_per_block=4,
                          blocks=blocks)
        )
    )


def commit_three(wal):
    for i in range(3):
        wal.log_update(i + 1, i, [(10, bytes([i]))])
        wal.commit()


class TestGroupCommit:
    def test_grouped_commits_defer_device_flush(self):
        wal = fresh_wal()
        wal.begin_group()
        commit_three(wal)
        assert wal.stats.commits == 3
        assert wal.stats.grouped_commits == 3
        assert wal.durable_frames() == []  # nothing flushed yet
        wal.end_group()
        assert wal.stats.group_flushes == 1
        assert len(wal.durable_frames()) == 3

    def test_media_bytes_identical_to_ungrouped(self):
        grouped, plain = fresh_wal(), fresh_wal()
        grouped.begin_group()
        commit_three(grouped)
        grouped.end_group()
        commit_three(plain)
        pages = grouped.chip.geometry.total_pages
        grouped_media = [grouped.chip.page_at(p).raw_data() for p in range(pages)]
        plain_media = [plain.chip.page_at(p).raw_data() for p in range(pages)]
        assert grouped_media == plain_media
        # ... but the grouped log paid fewer program pulses.
        assert grouped.chip.stats.program_ops < plain.chip.stats.program_ops

    def test_recovery_sees_each_grouped_frame(self):
        wal = fresh_wal()
        wal.begin_group()
        commit_three(wal)
        wal.end_group()
        records = wal.durable_records()
        assert [r.lba for r in records] == [0, 1, 2]

    def test_crash_inside_group_loses_the_window(self):
        wal = fresh_wal()
        wal.begin_group()
        commit_three(wal)
        wal.crash()  # power loss before end_group
        assert wal.durable_frames() == []
        assert not wal.in_group  # volatile group state is gone

    def test_flush_group_mid_group_forces_durability(self):
        wal = fresh_wal()
        wal.begin_group()
        commit_three(wal)
        wal.flush_group()  # veto-overflow path: forced, group stays open
        assert wal.in_group
        assert len(wal.durable_frames()) == 3
        wal.log_update(9, 9, [(10, b"\x09")])
        wal.commit()
        wal.end_group()
        assert len(wal.durable_frames()) == 4

    def test_nested_group_rejected(self):
        wal = fresh_wal()
        wal.begin_group()
        with pytest.raises(RuntimeError):
            wal.begin_group()

    def test_end_without_begin_rejected(self):
        wal = fresh_wal()
        with pytest.raises(RuntimeError):
            wal.end_group()

    def test_empty_group_flushes_nothing(self):
        wal = fresh_wal()
        wal.begin_group()
        wal.end_group()
        assert wal.stats.group_flushes == 0
        assert wal.durable_frames() == []

    def test_truncate_drops_pending_group_frames(self):
        wal = fresh_wal()
        wal.begin_group()
        commit_three(wal)
        wal.truncate()
        wal.end_group()
        assert wal.durable_frames() == []
