"""Quickstart: the full IPA stack in ~60 lines.

Builds a NoFTL device with an IPA region on a simulated Flash chip,
creates a table, and shows the life of a small update: tracked in the
buffer pool, shipped as a ~45-byte delta-record via write_delta, and
applied during page reconstruction on the next fetch.

Run:
    python examples/quickstart.py
"""

from repro.core.config import SCHEME_2X4
from repro.engine import Column, ColumnType, Database, Schema
from repro.flash import FlashChip, FlashGeometry
from repro.ftl import NoFtlDevice
from repro.storage.manager import IpaNativePolicy, StorageManager


def main() -> None:
    # 1. Simulated NAND chip (pSLC-safe SLC mode here for simplicity).
    geometry = FlashGeometry(
        page_size=4096, oob_size=128, pages_per_block=64, blocks=64
    )
    chip = FlashChip(geometry)

    # 2. NoFTL device with one IPA-enabled region ([2x4] as in the paper).
    device = NoFtlDevice(chip, over_provisioning=0.15)
    device.create_region("db", blocks=64, ipa=SCHEME_2X4)

    # 3. Storage manager with the write_delta eviction policy + database.
    manager = StorageManager(
        device, SCHEME_2X4, IpaNativePolicy(), buffer_capacity=16
    )
    db = Database(manager)

    accounts = db.create_table(
        "accounts",
        Schema(
            [
                Column("id", ColumnType.INT32),
                Column("balance", ColumnType.INT64),
                Column("owner", ColumnType.CHAR, 32),
            ]
        ),
        n_pages=64,
        pk="id",
    )

    # 4. Load some rows and persist them.
    for i in range(500):
        accounts.insert({"id": i, "balance": 1_000_000, "owner": f"user-{i}"})
    db.checkpoint()
    print(f"loaded 500 accounts; device writes so far: "
          f"{device.stats.host_writes} pages")

    # 5. A small update: +100 on one balance (changes 1 byte on the page).
    with db.begin("deposit"):
        accounts.update_field(42, "balance", 1_000_100)
    db.checkpoint()

    print("after one small update:")
    print(f"  whole-page writes : {device.stats.host_writes} (unchanged!)")
    print(f"  write_delta calls : {device.stats.host_delta_writes}")
    print(f"  bytes transferred : {device.stats.host_bytes_written % 4096} "
          f"for the delta (vs 4096 for a page)")
    print(f"  pages invalidated : {device.stats.page_invalidations}")

    # 6. Reconstruction on fetch: drop the buffer, read back.
    manager.pool.drop_all()
    row = accounts.get(42)
    print(f"reconstructed balance from Flash + delta-record: {row['balance']}")
    assert row["balance"] == 1_000_100


if __name__ == "__main__":
    main()
