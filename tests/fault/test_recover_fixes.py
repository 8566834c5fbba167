"""Regression tests for the recovery bookkeeping fixes.

``recover()`` returns the number of records that actually changed state.
Formats that found the page alive (in the pool or on flash) and updates
whose bytes were already durable are no-ops and must not be counted —
the return value feeds recovery reporting, and counting no-ops made
every recovery look like it replayed the whole log.
"""

from repro.core.config import IPA_DISABLED
from repro.engine.wal import FormatRecord, WriteAheadLog, recover
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.ftl.page_mapping import PageMappingFtl
from repro.storage.manager import StorageManager, TraditionalPolicy

DATA_GEO = FlashGeometry(page_size=1024, oob_size=128, pages_per_block=8, blocks=16)
WAL_GEO = FlashGeometry(page_size=1024, oob_size=16, pages_per_block=8, blocks=8)


def make_stack():
    device = PageMappingFtl(FlashChip(DATA_GEO), over_provisioning=0.2)
    manager = StorageManager(
        device, IPA_DISABLED, TraditionalPolicy(), buffer_capacity=4
    )
    wal = WriteAheadLog(FlashChip(WAL_GEO, clock=manager.clock))
    manager.wal = wal
    return manager, wal


def crash(manager, wal):
    wal.crash()
    manager.pool.drop_all()


def format_and_update(manager, lba: int) -> None:
    frame = manager.format_page(lba)
    manager.unpin(frame)
    with manager.update(lba) as page:
        page.insert(b"payload-" + bytes([lba]))


class TestAppliedCount:
    def test_lost_pages_count_format_and_update(self):
        manager, wal = make_stack()
        for lba in (0, 1):
            format_and_update(manager, lba)
        manager.commit_wal()
        crash(manager, wal)  # nothing flushed: both pages exist only in the log
        assert recover(manager, wal) == 4  # 2 formats + 2 updates replayed

    def test_surviving_pages_count_zero(self):
        manager, wal = make_stack()
        for lba in (0, 1):
            format_and_update(manager, lba)
        manager.commit_wal()
        manager.flush_all()  # pages reach flash; the log is now redundant
        crash(manager, wal)
        assert recover(manager, wal) == 0

    def test_format_noop_not_counted_alongside_real_replay(self):
        manager, wal = make_stack()
        format_and_update(manager, 0)
        manager.commit_wal()
        manager.flush_all()  # page 0 durable
        # Second committed txn touches page 0 again; its update is lost.
        with manager.update(0) as page:
            page.insert(b"second-record")
        manager.commit_wal()
        crash(manager, wal)
        # Replay: format(0) no-op (page on flash), update#1 no-op
        # (LSN already durable), update#2 applied.
        assert recover(manager, wal) == 1
        with manager.page(0) as page:
            records = [r for _, r in page.live_records()]
        assert records == [b"payload-\x00", b"second-record"]

    def test_recover_is_idempotent_and_truncates(self):
        manager, wal = make_stack()
        format_and_update(manager, 0)
        manager.commit_wal()
        crash(manager, wal)
        assert recover(manager, wal) == 2
        assert wal.durable_records() == []
        assert recover(manager, wal) == 0

    def test_format_record_for_empty_committed_page(self):
        manager, wal = make_stack()
        frame = manager.format_page(5)
        manager.unpin(frame)
        manager.commit_wal()
        crash(manager, wal)
        records = wal.durable_records()
        assert records == [FormatRecord(records[0].lsn, 5, 0)]
        assert recover(manager, wal) == 1  # page recreated from nothing
        with manager.page(5) as page:
            assert page.live_records() == []


class TestRecoverOnFreshMount:
    def test_fresh_wal_over_surviving_chip_recovers(self):
        """Satellite regression: recovery must work when the WAL object
        itself is rebuilt over the log chip (no volatile page cursor)."""
        manager, wal = make_stack()
        for lba in (0, 1, 2):
            format_and_update(manager, lba)
        manager.commit_wal()
        wal_chip = wal.chip
        manager.pool.drop_all()
        del wal

        remounted = WriteAheadLog(wal_chip)
        manager.wal = remounted
        assert len(remounted.durable_frames()) == 1
        assert recover(manager, remounted) == 6
        for lba in (0, 1, 2):
            with manager.page(lba) as page:
                assert [r for _, r in page.live_records()] == [
                    b"payload-" + bytes([lba])
                ]

    def test_recover_clears_stale_txn_locks(self):
        manager, wal = make_stack()
        format_and_update(manager, 0)  # never committed
        assert manager.pool.no_steal == {0}
        crash(manager, wal)
        recover(manager, wal)
        assert manager.pool.no_steal == set()
