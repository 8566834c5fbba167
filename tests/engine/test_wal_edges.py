"""WAL edge cases: device exhaustion, aborts, buffering boundaries."""

import pytest

from repro.engine.wal import WriteAheadLog
from repro.flash.chip import FlashChip
from repro.flash.errors import IllegalProgramError
from repro.flash.geometry import FlashGeometry


def tiny_wal(blocks=2):
    return WriteAheadLog(
        FlashChip(
            FlashGeometry(page_size=256, oob_size=16, pages_per_block=4,
                          blocks=blocks)
        )
    )


class TestWalEdges:
    def test_device_full_raises(self):
        wal = tiny_wal(blocks=1)  # 4 pages x 256 B = 1 KB of log
        with pytest.raises(IllegalProgramError):
            for i in range(200):
                wal.log_update(i + 1, 0, [(10, b"\x01\x02")])
                wal.commit()

    def test_truncate_resets_capacity(self):
        wal = tiny_wal(blocks=1)
        for i in range(10):
            wal.log_update(i + 1, 0, [(10, b"\x01")])
            wal.commit()
        wal.truncate()
        for i in range(10):  # same volume fits again
            wal.log_update(100 + i, 0, [(10, b"\x01")])
            wal.commit()
        assert len(wal.durable_records()) == 10

    def test_empty_commit_counts(self):
        wal = tiny_wal()
        wal.commit()
        assert wal.stats.commits == 1
        assert wal.stats.bytes_flushed == 0

    def test_records_span_page_boundaries(self):
        wal = tiny_wal()
        # One commit bigger than a log page (256 B).
        big = [(0, bytes(range(200)))]  # 15 + 600 bytes encoded
        wal.log_update(1, 0, big)
        wal.commit()
        records = wal.durable_records()
        assert len(records) == 1
        assert len(records[0].changes) == 200

    def test_empty_changes_not_logged(self):
        wal = tiny_wal()
        wal.log_update(1, 0, [])
        assert wal.stats.records_logged == 0

    def test_change_offsets_up_to_the_u16_limit(self):
        """The offset table grows to the largest offset logged; one past
        the u16 range is refused, not encoded short."""
        wal = tiny_wal()
        offsets = (10, 300, 5000, 65533)
        for lsn, offset in enumerate(offsets, 1):
            wal.log_update(lsn, 0, [(offset, b"\x01\x02\x03")])
        wal.commit()
        records = wal.durable_records()
        assert [record.changes for record in records] == [
            ((offset, 1), (offset + 1, 2), (offset + 2, 3)) for offset in offsets
        ]
        with pytest.raises(ValueError, match="not a u16"):
            wal.log_update(9, 0, [(65534, b"\x01\x02\x03")])
        assert wal.stats.records_logged == len(offsets)
