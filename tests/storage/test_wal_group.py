"""``with manager.wal_group()``: one WAL commit group per block.

A normal exit flushes the group's frames in one device append and
releases the no-steal pages the group held.  An exception inside the
block propagates unchanged and flushes nothing: the group's transactions
were never acknowledged, so the group stays open and the next
``wal_group()`` is refused.  (Closing a group that was never opened is
``tests/engine/test_wal_group.py::test_end_without_begin_rejected``.)
"""

import pytest

from repro.core.config import IPA_DISABLED
from repro.engine.wal import WriteAheadLog
from repro.fault.injector import PowerLossError
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.ftl.page_mapping import PageMappingFtl
from repro.storage.manager import StorageManager, TraditionalPolicy

DATA_GEO = FlashGeometry(page_size=1024, oob_size=128, pages_per_block=8, blocks=32)
WAL_GEO = FlashGeometry(page_size=1024, oob_size=16, pages_per_block=8, blocks=16)


def make_manager(with_wal=True):
    device = PageMappingFtl(FlashChip(DATA_GEO), over_provisioning=0.2)
    manager = StorageManager(
        device, IPA_DISABLED, TraditionalPolicy(), buffer_capacity=8
    )
    if with_wal:
        manager.wal = WriteAheadLog(FlashChip(WAL_GEO, clock=manager.clock))
    return manager


def commit_one(manager, lba):
    """One transaction: format a page, insert a record, commit."""
    frame = manager.format_page(lba)
    with manager.update(lba) as page:
        page.insert(b"record-%02d" % lba)
    manager.unpin(frame)
    manager.commit_wal()


def test_block_flushes_once_and_releases_its_pages():
    manager = make_manager()
    with manager.wal_group():
        for lba in range(3):
            commit_one(manager, lba)
        # Buffered, not durable: the group still holds its pages.
        assert manager.wal.durable_frames() == []
        assert manager.pool.no_steal == {0, 1, 2}
    assert manager.wal.stats.group_flushes == 1
    assert len(manager.wal.durable_frames()) == 3
    assert manager.pool.no_steal == set()
    assert not manager.wal.in_group


@pytest.mark.parametrize("error", [ValueError, PowerLossError])
def test_exception_propagates_and_flushes_nothing(error):
    manager = make_manager()
    with pytest.raises(error):
        with manager.wal_group():
            commit_one(manager, 0)
            raise error("inside the group")
    assert manager.wal.durable_frames() == []
    assert manager.wal.stats.group_flushes == 0
    assert manager.wal.in_group
    with pytest.raises(RuntimeError, match="WAL commit group already open"):
        with manager.wal_group():
            pass


def test_without_a_wal_the_block_still_clears_the_no_steal_set():
    manager = make_manager(with_wal=False)
    manager.pool.no_steal.add(5)
    with manager.wal_group():
        commit_one(manager, 0)
    assert manager.pool.no_steal == set()


def test_exit_goes_through_the_instance_end_wal_group():
    # The e2e benchmark times the group flush by wrapping
    # ``manager.end_wal_group`` on the instance.
    manager = make_manager()
    calls = []
    end_wal_group = manager.end_wal_group

    def spy():
        calls.append(manager.wal.in_group)
        end_wal_group()

    manager.end_wal_group = spy
    with manager.wal_group():
        commit_one(manager, 0)
    assert calls == [True]
    assert manager.wal.stats.group_flushes == 1
