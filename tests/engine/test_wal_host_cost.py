"""Host-cost tripwire for WAL logging, exact and timing-free: the Python
calls an update operation costs, logging included, do not grow with the
bytes it changed.

The change tracker hands the log its changes as byte runs, and the log
encodes a run with slice stores, so a 1 000-byte insert costs a handful
of calls more than a 20-byte field update (it also writes a slot and
stamps the slot count).  A per-byte loop creeping back into the tracker's
run builder or the record encoder costs a call or more per byte.
"""

import sys

from repro.core.config import SCHEME_2X4
from repro.engine.wal import WriteAheadLog
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.ftl.noftl import NoFtlDevice
from repro.storage.manager import IpaNativePolicy, StorageManager

GEO = FlashGeometry(page_size=4096, oob_size=128, pages_per_block=8, blocks=16)
#: Calls the 1 000-byte insert may cost beyond the 20-byte update.
SLACK = 40


def _manager():
    device = NoFtlDevice(FlashChip(GEO), over_provisioning=0.2)
    device.create_region("data", blocks=16, ipa=SCHEME_2X4)
    manager = StorageManager(device, SCHEME_2X4, IpaNativePolicy(), buffer_capacity=4)
    manager.wal = WriteAheadLog(FlashChip(GEO, seed=7))
    return manager


def _calls(op) -> int:
    """Python and builtin calls made while ``op()`` runs."""
    count = 0

    def profile(_frame, event, _arg):
        nonlocal count
        if event == "call" or event == "c_call":
            count += 1

    sys.setprofile(profile)
    try:
        op()
    finally:
        sys.setprofile(None)
    return count


def test_logging_an_insert_costs_no_call_per_byte():
    manager = _manager()
    frame = manager.format_page(0)
    with manager.update(0) as page:
        slot = page.insert(bytes(range(1, 101)))
    logged = manager.wal.stats.records_logged

    def update():
        with manager.update(0) as page:
            page.update(slot, 40, bytes(range(150, 170)))

    record = bytes(i % 250 + 1 for i in range(1000))  # no erased byte

    def insert():
        with manager.update(0) as page:
            page.insert(record)

    update_calls = _calls(update)
    insert_calls = _calls(insert)
    manager.unpin(frame)
    # Both operations were logged, the insert as 1 000+ changes.
    assert manager.wal.stats.records_logged == logged + 2
    manager.wal.commit()
    insert_record = manager.wal.durable_records()[-1]
    assert len(insert_record.changes) > 1000
    assert insert_calls <= update_calls + SLACK, (insert_calls, update_calls)
