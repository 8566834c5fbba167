"""Crash recovery with IPA: "regular database functionality is NOT
impacted by the proposed approach" (paper, Section 3).

A bank ledger runs on the native-Flash IPA stack with a write-ahead log
on its own log device.  Mid-burst, the power cord is pulled: the buffer
pool, the FTL mapping and the volatile WAL tail evaporate, the Flash
keeps its bits — including pages whose most recent state exists only as
*in-place appended delta-records*.  The same stack spec then mounts
brand-new objects over the surviving chips, and redo recovery proves
that delta-persisted state and WAL replay compose correctly.

Run:
    python examples/crash_recovery.py
"""

import numpy as np

from repro.core.config import SCHEME_2X4
from repro.engine import Column, ColumnType, Schema
from repro.engine.wal import recover
from repro.flash import FlashGeometry
from repro.stack import StackSpec
from repro.storage.verify import verify_database

ACCOUNTS = 400

#: NoFTL region with [2x4] IPA on a 64-block chip, 8 buffer frames and a
#: WAL on its own 16-block log chip.
SPEC = StackSpec(
    architecture="ipa-native",
    scheme=SCHEME_2X4,
    geometry=FlashGeometry(page_size=2048, oob_size=128, pages_per_block=16,
                           blocks=64),
    buffer_pages=8,
    with_wal=True,
    wal_geometry=FlashGeometry(page_size=2048, oob_size=16,
                               pages_per_block=16, blocks=16),
)


def main() -> None:
    db, manager = SPEC.build()

    ledger = db.create_table(
        "ledger",
        Schema(
            [
                Column("id", ColumnType.INT32),
                Column("balance", ColumnType.INT64),
                Column("owner", ColumnType.CHAR, 24),
            ]
        ),
        n_pages=64,
        pk="id",
    )
    for i in range(ACCOUNTS):
        with db.begin("open-account"):
            ledger.insert(
                {"id": i, "balance": 1_000_000, "owner": f"customer-{i}"}
            )
    db.checkpoint()
    print(f"opened {ACCOUNTS} accounts, checkpointed.")

    # A burst of committed transfers...
    rng = np.random.default_rng(2026)
    expected = {i: 1_000_000 for i in range(ACCOUNTS)}
    for _ in range(300):
        src, dst = (int(x) for x in rng.integers(0, ACCOUNTS, 2))
        amount = int(rng.integers(1, 5000))
        with db.begin("transfer"):
            ledger.update_field(src, "balance", expected[src] - amount)
            ledger.update_field(dst, "balance", expected[dst] + amount)
        expected[src] -= amount
        expected[dst] += amount

    # ...and one transfer that never commits.
    ledger.update_field(0, "balance", -999_999)

    deltas = manager.device.stats.host_delta_writes
    print(f"300 transfers committed ({deltas} shipped as write_delta "
          "records); one malicious update left uncommitted.")

    print("\n*** POWER LOSS ***\n")
    # Only the chips survive: mount fresh objects over them and replay.
    manager = SPEC.mount(manager.device.chip, manager.wal.chip)
    applied = recover(manager, manager.wal)
    # This engine keeps its catalog (table -> LBA range, key index) in
    # host memory, so the table handle moves onto the remounted stack.
    db.manager = ledger.heap.manager = manager
    print(f"redo recovery applied {applied} log records.")

    mismatches = sum(
        1 for i in range(ACCOUNTS)
        if ledger.get(i)["balance"] != expected[i]
    )
    total = sum(r["balance"] for r in ledger.scan())
    print(f"balance mismatches after recovery : {mismatches}")
    print(f"money conservation                : "
          f"{total} == {ACCOUNTS * 1_000_000} -> "
          f"{total == ACCOUNTS * 1_000_000}")
    report = verify_database(db)
    print(f"fsck: {report.pages_checked} pages, "
          f"{report.records_checked} records, "
          f"{len(report.errors)} errors")
    assert mismatches == 0 and report.ok


if __name__ == "__main__":
    main()
