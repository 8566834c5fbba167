"""WAL + crash recovery: the paper's "recovery is NOT impacted" claim.

The decisive test matrix: commit transactions, CRASH (drop the buffer
pool and volatile WAL buffer), remount, redo — and verify committed
state survives under every storage architecture, including the ones
that persisted some changes only as in-place appended delta-records.
"""

import pytest

from repro.baselines.ipl import IplConfig, IplPolicy, IplStore
from repro.core.config import IPA_DISABLED, SCHEME_2X4
from repro.engine.database import Database
from repro.engine.schema import Column, ColumnType, Schema
from repro.engine.wal import (
    FormatRecord,
    PageUpdateRecord,
    WriteAheadLog,
    decode_records,
    recover,
)
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.ftl.ipa_ftl import IpaFtl
from repro.ftl.noftl import NoFtlDevice
from repro.ftl.page_mapping import PageMappingFtl
from repro.storage.manager import (
    IpaBlockDevicePolicy,
    IpaNativePolicy,
    StorageManager,
    TraditionalPolicy,
)
from tests.reference.wal import ref_encode, ref_update_encode

DATA_GEO = FlashGeometry(page_size=1024, oob_size=128, pages_per_block=8, blocks=48)
WAL_GEO = FlashGeometry(page_size=1024, oob_size=16, pages_per_block=8, blocks=16)

SCHEMA = Schema(
    [
        Column("k", ColumnType.INT32),
        Column("v", ColumnType.INT64),
        Column("pad", ColumnType.CHAR, 40),
    ]
)


def make_stack(architecture: str):
    if architecture == "traditional":
        device = PageMappingFtl(FlashChip(DATA_GEO), over_provisioning=0.2)
        manager = StorageManager(
            device, IPA_DISABLED, TraditionalPolicy(), buffer_capacity=4
        )
    elif architecture == "ipa-blockdev":
        device = IpaFtl(FlashChip(DATA_GEO), over_provisioning=0.2)
        manager = StorageManager(
            device, SCHEME_2X4, IpaBlockDevicePolicy(), buffer_capacity=4
        )
    elif architecture == "ipa-native":
        device = NoFtlDevice(FlashChip(DATA_GEO), over_provisioning=0.2)
        device.create_region("t", blocks=48, ipa=SCHEME_2X4)
        manager = StorageManager(
            device, SCHEME_2X4, IpaNativePolicy(), buffer_capacity=4
        )
    else:  # ipl
        device = IplStore(
            FlashChip(DATA_GEO), IplConfig(log_pages_per_block=2, sector_size=256)
        )
        manager = StorageManager(
            device, IPA_DISABLED, IplPolicy(), buffer_capacity=4
        )
    wal = WriteAheadLog(FlashChip(WAL_GEO, clock=manager.clock))
    manager.wal = wal
    return Database(manager), manager, wal


def crash(db, manager, wal):
    """Power loss: volatile state evaporates; Flash keeps its bits."""
    wal.crash()
    manager.pool.drop_all()


class TestWalCodec:
    def test_update_record_round_trip(self):
        record = PageUpdateRecord(7, 12, ((100, 0xAB), (101, 0xCD)))
        back = decode_records(ref_update_encode(record))
        assert back == [record]

    def test_format_record_round_trip(self):
        record = FormatRecord(3, 9, 5)
        assert decode_records(record.encode()) == [record]

    def test_stream_round_trip(self):
        records = [
            FormatRecord(1, 0, 2),
            PageUpdateRecord(2, 0, ((30, 1),)),
            PageUpdateRecord(3, 0, ((31, 2), (32, 3))),
        ]
        stream = b"".join(ref_encode(r) for r in records)
        assert decode_records(stream) == records

    def test_corrupt_magic_rejected(self):
        with pytest.raises(ValueError):
            decode_records(b"\x01\x00\x00")


@pytest.mark.parametrize(
    "architecture", ["traditional", "ipa-blockdev", "ipa-native", "ipl"]
)
class TestCrashRecovery:
    def test_committed_updates_survive_crash(self, architecture):
        db, manager, wal = make_stack(architecture)
        table = db.create_table("t", SCHEMA, n_pages=30, pk="k")
        for i in range(60):
            with db.begin("load"):
                table.insert({"k": i, "v": 1000 + i, "pad": "x"})
        db.checkpoint()

        for i in range(0, 60, 2):
            with db.begin("bump"):
                table.update_field(i, "v", 2000 + i)

        crash(db, manager, wal)  # dirty pages + buffer gone
        applied = recover(manager, wal)
        assert applied > 0
        if architecture == "ipl":
            manager.device.flush_log_buffers()
        manager.pool.drop_all()

        for i in range(60):
            expected = 2000 + i if i % 2 == 0 else 1000 + i
            assert table.get(i)["v"] == expected, (architecture, i)

    def test_uncommitted_work_is_lost(self, architecture):
        db, manager, wal = make_stack(architecture)
        table = db.create_table("t", SCHEMA, n_pages=30, pk="k")
        with db.begin("load"):
            table.insert({"k": 1, "v": 10, "pad": "x"})
        db.checkpoint()

        # Update WITHOUT commit: buffered in the volatile WAL only.
        table.update_field(1, "v", 999)
        crash(db, manager, wal)
        recover(manager, wal)
        assert table.get(1)["v"] == 10, architecture

    def test_recovery_is_idempotent(self, architecture):
        db, manager, wal = make_stack(architecture)
        table = db.create_table("t", SCHEMA, n_pages=30, pk="k")
        for i in range(20):
            with db.begin("load"):
                table.insert({"k": i, "v": i, "pad": "x"})
        for i in range(20):
            with db.begin("bump"):
                table.update_field(i, "v", i * 10)
        crash(db, manager, wal)
        recover(manager, wal)
        recover(manager, wal)  # second replay must be a no-op
        manager.pool.drop_all()
        for i in range(20):
            assert table.get(i)["v"] == i * 10

    def test_partially_persisted_pages_not_double_applied(self, architecture):
        """Some committed pages reach Flash before the crash (evictions);
        the LSN test must skip their records."""
        db, manager, wal = make_stack(architecture)
        table = db.create_table("t", SCHEMA, n_pages=30, pk="k")
        for i in range(60):
            with db.begin("load"):
                table.insert({"k": i, "v": i, "pad": "x"})
        db.checkpoint()
        # Tiny pool: many of these updates get evicted (persisted) early.
        for i in range(60):
            with db.begin("bump"):
                table.update_field(i, "v", i + 7)
        crash(db, manager, wal)
        recover(manager, wal)
        manager.pool.drop_all()
        for i in range(60):
            assert table.get(i)["v"] == i + 7, (architecture, i)


class TestWalMechanics:
    def test_commit_forces_log_device(self):
        db, manager, wal = make_stack("ipa-native")
        table = db.create_table("t", SCHEMA, n_pages=30, pk="k")
        programs_before = wal.chip.stats.page_reprograms
        with db.begin("txn"):
            table.insert({"k": 1, "v": 1, "pad": "x"})
        assert wal.chip.stats.page_reprograms > programs_before

    def test_checkpoint_truncates(self):
        db, manager, wal = make_stack("ipa-native")
        table = db.create_table("t", SCHEMA, n_pages=30, pk="k")
        with db.begin("txn"):
            table.insert({"k": 1, "v": 1, "pad": "x"})
        assert wal.durable_records()
        db.checkpoint()
        assert wal.durable_records() == []

    def test_commit_charges_latency(self):
        db, manager, wal = make_stack("ipa-native")
        table = db.create_table("t", SCHEMA, n_pages=30, pk="k")
        before = manager.clock.now_us
        with db.begin("txn"):
            table.insert({"k": 1, "v": 1, "pad": "x"})
        assert manager.clock.now_us > before
