"""Profile-guided region configuration: the advisor closes the loop.

The paper leaves *which* database objects get IPA to the operator.  This
example automates the workflow end-to-end:

1. run a TPC-B sample on a plain stack and profile every table's update
   operations;
2. let the region advisor recommend a per-table configuration
   (balance tables -> IPA [2x4]; insert-only history -> IPA off);
3. rebuild the database on a NoFTL device whose regions follow the
   advice — one region per table, sized to the table's page budget;
4. rerun and compare device behaviour.

Run:
    python examples/region_advisor.py
"""

import numpy as np

from repro.analysis.advisor import advise, render_advice
from repro.bench.harness import ExperimentConfig, build_stack
from repro.core.config import SCHEME_2X4
from repro.engine.database import Database
from repro.flash import FlashChip, FlashGeometry, FlashMode
from repro.ftl import NoFtlDevice
from repro.storage.manager import IpaNativePolicy, StorageManager
from repro.workloads.base import pages_for_rows
from repro.workloads.tpcb import TpcbWorkload

SAMPLE_TXNS = 1200
RUN_TXNS = 3000


def profile_phase():
    workload = TpcbWorkload(scale=1, accounts_per_branch=4000,
                            history_pages=200)
    db, _manager = build_stack(
        ExperimentConfig(
            workload=workload,
            architecture="traditional",
            mode=FlashMode.SLC,
            buffer_pages=24,
        )
    )
    rng = np.random.default_rng(7)
    workload.build(db, rng)
    db.manager.stats.per_file_op_sizes.clear()  # steady state only
    for _ in range(SAMPLE_TXNS):
        workload.transaction(db, rng)
    return advise(db)


def configured_run(advice_by_table):
    """Build a NoFTL device with one region per table, per the advice."""
    workload = TpcbWorkload(scale=1, accounts_per_branch=4000,
                            history_pages=200)
    page_size = 4096
    chip = FlashChip(
        FlashGeometry(page_size=page_size, oob_size=128, pages_per_block=64,
                      blocks=96),
        mode=FlashMode.PSLC,
    )
    device = NoFtlDevice(chip, over_provisioning=0.15)

    # Table creation order must match region creation order.
    manager_probe = StorageManager(  # throwaway, for page-budget math
        NoFtlDevice(FlashChip(chip.geometry, mode=FlashMode.PSLC)),
        SCHEME_2X4,
        IpaNativePolicy(),
    )
    probe_db = Database(manager_probe)
    budgets = {
        "branch": pages_for_rows(probe_db, workload.scale, 104),
        "teller": pages_for_rows(probe_db, workload.n_tellers, 104),
        "account": pages_for_rows(probe_db, workload.n_accounts, 104),
        "history": workload.history_pages,
    }
    blocks_left = chip.geometry.blocks
    for i, (table, pages) in enumerate(budgets.items()):
        advice = advice_by_table[table]
        usable = 32  # pSLC: half of 64 pages/block
        need_blocks = max(int(pages / (0.85 * usable)) + 4, 6)
        if i == len(budgets) - 1:
            need_blocks = blocks_left  # last region takes the rest
        blocks_left -= need_blocks
        device.create_region(
            table,
            blocks=need_blocks,
            ipa=advice.scheme,
            logical_pages=pages,
        )

    manager = StorageManager(
        device, SCHEME_2X4, IpaNativePolicy(), buffer_capacity=24
    )
    db = Database(manager)
    rng = np.random.default_rng(7)
    workload.build(db, rng)
    manager.clock.reset()
    before = device.stats.snapshot()
    for _ in range(RUN_TXNS):
        workload.transaction(db, rng)
    db.checkpoint()
    return db, device.stats.diff(before), manager


def main() -> None:
    print(f"phase 1: profiling {SAMPLE_TXNS} TPC-B transactions ...\n")
    advice = profile_phase()
    print(render_advice(advice))
    advice_by_table = {a.table: a for a in advice}

    print(f"\nphase 2: rebuilding with advised regions, running "
          f"{RUN_TXNS} transactions ...\n")
    db, stats, manager = configured_run(advice_by_table)
    tps = db.txn_stats.committed / manager.clock.now_s
    share = stats.in_place_appends / max(
        stats.in_place_appends + stats.out_of_place_writes, 1
    )
    print(f"  throughput        : {tps:,.0f} TPS")
    print(f"  write_delta calls : {stats.host_delta_writes}")
    print(f"  IPA eviction share: {share:.0%}")
    print(f"  GC migrations/erases: {stats.gc_page_migrations}/"
          f"{stats.gc_erases}")
    print()
    print(manager.device.region_report())


if __name__ == "__main__":
    main()
