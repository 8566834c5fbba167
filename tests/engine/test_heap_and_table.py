"""Heap files, tables and transactions against a simulated device."""

import pytest

from repro.core.config import SCHEME_2X4
from repro.engine.database import Database
from repro.engine.index import DuplicateKeyError, HashIndex
from repro.engine.schema import Column, ColumnType, Schema
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.ftl.noftl import NoFtlDevice
from repro.storage.heap import FileFullError, HeapFile, RID
from repro.storage.manager import IpaNativePolicy, StorageManager
from repro.storage.verify import verify_table

GEO = FlashGeometry(page_size=1024, oob_size=128, pages_per_block=8, blocks=64)


def make_manager(buffer_capacity=16):
    device = NoFtlDevice(FlashChip(GEO), over_provisioning=0.2)
    device.create_region("data", blocks=64, ipa=SCHEME_2X4)
    return StorageManager(
        device, SCHEME_2X4, IpaNativePolicy(), buffer_capacity=buffer_capacity
    )


def make_db(buffer_capacity=16):
    return Database(make_manager(buffer_capacity))


SCHEMA = Schema(
    [
        Column("id", ColumnType.INT32),
        Column("balance", ColumnType.INT64),
        Column("pad", ColumnType.CHAR, 80),
    ]
)


class TestHeapFile:
    def test_insert_read(self):
        mgr = make_manager()
        heap = HeapFile(mgr, 1, 0, 10)
        rid = heap.insert(b"hello")
        assert heap.read(rid) == b"hello"
        assert heap.record_count == 1

    def test_spills_to_new_pages(self):
        mgr = make_manager()
        heap = HeapFile(mgr, 1, 0, 10)
        rids = [heap.insert(b"x" * 100) for _ in range(30)]
        assert heap.allocated_pages > 1
        assert len({r.lba for r in rids}) == heap.allocated_pages
        for rid in rids:
            assert heap.read(rid) == b"x" * 100

    def test_file_full(self):
        mgr = make_manager()
        heap = HeapFile(mgr, 1, 0, 1)
        with pytest.raises(FileFullError):
            for _ in range(100):
                heap.insert(b"y" * 100)

    def test_update_in_place(self):
        mgr = make_manager()
        heap = HeapFile(mgr, 1, 0, 4)
        rid = heap.insert(b"balance:00000")
        heap.update(rid, 8, b"42")
        assert heap.read(rid) == b"balance:42000"

    def test_delete_and_scan(self):
        mgr = make_manager()
        heap = HeapFile(mgr, 1, 0, 4)
        r1 = heap.insert(b"one")
        r2 = heap.insert(b"two")
        heap.delete(r1)
        assert [rec for _rid, rec in heap.scan()] == [b"two"]
        assert heap.record_count == 1

    def test_survives_eviction(self):
        mgr = make_manager(buffer_capacity=2)
        heap = HeapFile(mgr, 1, 0, 20)
        rids = [heap.insert(bytes([i]) * 50) for i in range(40)]
        mgr.flush_all()
        for i, rid in enumerate(rids):
            assert heap.read(rid) == bytes([i]) * 50


class TestHashIndex:
    def test_insert_get_delete(self):
        idx = HashIndex("t")
        idx.insert(1, RID(0, 0))
        assert idx.get(1) == RID(0, 0)
        assert 1 in idx
        idx.delete(1)
        assert 1 not in idx

    def test_duplicate_rejected(self):
        idx = HashIndex("t")
        idx.insert(1, RID(0, 0))
        with pytest.raises(DuplicateKeyError):
            idx.insert(1, RID(0, 1))


class TestTable:
    def test_insert_get(self):
        db = make_db()
        t = db.create_table("acct", SCHEMA, n_pages=20, pk="id")
        t.insert({"id": 1, "balance": 100, "pad": "x"})
        assert t.get(1)["balance"] == 100

    def test_update_field(self):
        db = make_db()
        t = db.create_table("acct", SCHEMA, n_pages=20, pk="id")
        t.insert({"id": 1, "balance": 100, "pad": "x"})
        t.update_field(1, "balance", 175)
        assert t.get(1)["balance"] == 175

    def test_update_persists_through_eviction(self):
        db = make_db(buffer_capacity=2)
        t = db.create_table("acct", SCHEMA, n_pages=30, pk="id")
        for i in range(50):
            t.insert({"id": i, "balance": i * 10, "pad": "p"})
        t.update_field(7, "balance", 777)
        db.checkpoint()
        db.manager.pool.drop_all()
        assert t.get(7)["balance"] == 777

    def test_delete(self):
        db = make_db()
        t = db.create_table("acct", SCHEMA, n_pages=20, pk="id")
        t.insert({"id": 1, "balance": 1, "pad": "x"})
        t.delete(1)
        with pytest.raises(KeyError):
            t.get(1)

    def test_composite_pk(self):
        db = make_db()
        schema = Schema(
            [
                Column("w", ColumnType.INT32),
                Column("d", ColumnType.INT32),
                Column("v", ColumnType.INT64),
            ]
        )
        t = db.create_table("wd", schema, n_pages=10, pk=("w", "d"))
        t.insert({"w": 1, "d": 2, "v": 3})
        assert t.get((1, 2))["v"] == 3

    def test_scan(self):
        db = make_db()
        t = db.create_table("acct", SCHEMA, n_pages=20, pk="id")
        for i in range(5):
            t.insert({"id": i, "balance": i, "pad": ""})
        assert sorted(r["id"] for r in t.scan()) == [0, 1, 2, 3, 4]

    def test_refused_duplicate_key_leaves_no_row(self):
        db = make_db()
        t = db.create_table("acct", SCHEMA, n_pages=20, pk="id")
        t.insert({"id": 1, "balance": 100, "pad": "x"})
        updates_before = db.manager.stats.update_ops
        with pytest.raises(DuplicateKeyError):
            t.insert({"id": 1, "balance": 200, "pad": "y"})
        assert len(t) == 1
        assert [dict(row) for row in t.scan()] == [
            {"id": 1, "balance": 100, "pad": "x"}
        ]
        assert verify_table(t).ok
        assert db.manager.stats.update_ops == updates_before

    def test_duplicate_table_rejected(self):
        db = make_db()
        db.create_table("t", SCHEMA, n_pages=5, pk="id")
        with pytest.raises(ValueError):
            db.create_table("t", SCHEMA, n_pages=5, pk="id")


class TestTransactions:
    def test_commit_counts(self):
        db = make_db()
        t = db.create_table("acct", SCHEMA, n_pages=20, pk="id")
        t.insert({"id": 1, "balance": 0, "pad": ""})
        with db.begin("payment"):
            t.update_field(1, "balance", 10)
        with db.begin("payment"):
            t.update_field(1, "balance", 20)
        with db.begin("query"):
            t.get(1)
        assert db.txn_stats.committed == 3
        assert db.txn_stats.by_type == {"payment": 2, "query": 1}

    def test_commit_advances_clock(self):
        db = make_db()
        before = db.manager.clock.now_us
        with db.begin("noop"):
            pass
        assert db.manager.clock.now_us > before

    def test_exception_skips_commit(self):
        db = make_db()
        with pytest.raises(RuntimeError):
            with db.begin("bad"):
                raise RuntimeError("boom")
        assert db.txn_stats.committed == 0


class TestSmallUpdatesUseIpa:
    def test_balance_updates_become_deltas(self):
        """End-to-end: OLTP-style field updates ship as delta-records."""
        db = make_db(buffer_capacity=4)
        t = db.create_table("acct", SCHEMA, n_pages=40, pk="id")
        for i in range(100):
            t.insert({"id": i, "balance": 0, "pad": "p" * 40})
        db.checkpoint()
        deltas_before = db.manager.device.stats.host_delta_writes
        # Small updates spread over many pages; evictions ship deltas.
        for i in range(100):
            t.update_field(i, "balance", 1)
        db.checkpoint()
        assert db.manager.device.stats.host_delta_writes > deltas_before
        assert db.manager.stats.ipa_flushes > 0
