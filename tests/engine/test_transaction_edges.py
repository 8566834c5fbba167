"""Transaction bracket edge cases."""

import pytest

from repro.core.config import SCHEME_2X4
from repro.engine.database import Database
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.ftl.noftl import NoFtlDevice
from repro.storage.manager import IpaNativePolicy, StorageManager


def make_db():
    geo = FlashGeometry(page_size=512, oob_size=128, pages_per_block=8,
                        blocks=16)
    device = NoFtlDevice(FlashChip(geo), over_provisioning=0.25)
    device.create_region("d", blocks=16, ipa=SCHEME_2X4)
    return Database(StorageManager(device, SCHEME_2X4, IpaNativePolicy(),
                                   buffer_capacity=4))


class TestTransactionEdges:
    def test_double_commit_rejected(self):
        db = make_db()
        txn = db.begin("t")
        txn.commit()
        with pytest.raises(RuntimeError):
            txn.commit()

    def test_manual_commit_inside_with_is_single(self):
        db = make_db()
        with db.begin("t") as txn:
            txn.commit()
        # __exit__ must not double-commit.
        assert db.txn_stats.committed == 1

    def test_default_type_label(self):
        db = make_db()
        with db.begin():
            pass
        assert db.txn_stats.by_type == {"txn": 1}
