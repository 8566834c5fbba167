"""The fsck-style verifier: clean databases pass, corruptions are found."""

from repro.core.config import SCHEME_2X4
from repro.engine.database import Database
from repro.engine.schema import Column, ColumnType, Schema
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.ftl.noftl import NoFtlDevice
from repro.storage.heap import RID
from repro.storage.manager import IpaNativePolicy, StorageManager
from repro.storage.verify import verify_database, verify_table

GEO = FlashGeometry(page_size=1024, oob_size=128, pages_per_block=8, blocks=48)

SCHEMA = Schema(
    [
        Column("k", ColumnType.INT32),
        Column("v", ColumnType.INT64),
        Column("pad", ColumnType.CHAR, 30),
    ]
)


def make_db():
    device = NoFtlDevice(FlashChip(GEO), over_provisioning=0.2)
    device.create_region("t", blocks=48, ipa=SCHEME_2X4)
    manager = StorageManager(
        device, SCHEME_2X4, IpaNativePolicy(), buffer_capacity=6
    )
    return Database(manager)


def build_table(db, rows=80):
    table = db.create_table("t", SCHEMA, n_pages=30, pk="k")
    for i in range(rows):
        table.insert({"k": i, "v": i, "pad": "p"})
    db.checkpoint()
    return table


class TestVerifyClean:
    def test_fresh_table_passes(self):
        db = make_db()
        table = build_table(db)
        report = verify_table(table)
        assert report.ok, report.errors
        assert report.records_checked == 80
        assert report.pages_checked == table.heap.allocated_pages

    def test_after_updates_and_ipa_round_trips(self):
        db = make_db()
        table = build_table(db)
        for i in range(0, 80, 3):
            table.update_field(i, "v", i * 2)
        db.checkpoint()
        db.manager.pool.drop_all()
        report = verify_database(db)
        assert report.ok, report.errors

    def test_after_deletes(self):
        db = make_db()
        table = build_table(db)
        for i in range(0, 80, 2):
            table.delete(i)
        db.checkpoint()
        assert verify_table(table).ok


class TestVerifyDetectsCorruption:
    def test_dangling_index_entry(self):
        db = make_db()
        table = build_table(db)
        table.pk_index.insert(9999, RID(table.heap.base_lba, 0))
        report = verify_table(table)
        assert not report.ok
        assert any("9999" in e for e in report.errors)

    def test_missing_index_entry(self):
        db = make_db()
        table = build_table(db)
        table.pk_index.delete(5)
        report = verify_table(table)
        assert not report.ok
        assert any("missing from index" in e for e in report.errors)

    def test_wrong_rid_in_index(self):
        db = make_db()
        table = build_table(db)
        rid0 = table.pk_index.get(0)
        table.pk_index.delete(0)
        table.pk_index.insert(0, RID(rid0.lba, rid0.slot + 1))
        report = verify_table(table)
        assert not report.ok

    def test_non_ascii_char_record_is_undecodable(self):
        # Forged below the schema: Schema.encode refuses these bytes.  The
        # CHAR column is the only one that cannot decode, so fsck must
        # read it, not just unpack the record.
        db = make_db()
        table = build_table(db)
        forged = (1000).to_bytes(4, "little") + (7).to_bytes(8, "little")
        table.heap.insert(forged + b"\xff\x01".ljust(30, b" "))
        report = verify_database(db)
        assert not report.ok
        assert any("undecodable record" in e for e in report.errors)
        assert report.records_checked == 81

    def test_flash_corruption_detected(self):
        db = make_db()
        table = build_table(db)
        db.manager.pool.drop_all()
        region = db.manager.device.regions[0]
        ppn = region.mapping[table.heap.base_lba]
        db.manager.device.chip.page_at(ppn)._data[200] ^= 0xFF
        report = verify_table(table)
        assert not report.ok
        assert any("corrupt" in e or "unreadable" in e for e in report.errors)
