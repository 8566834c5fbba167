"""Domain scenario: a telco HLR with IPA applied selectively per region.

TATP models a Home Location Register: read-mostly, with tiny location
updates.  This example shows the NoFTL-regions feature the paper
highlights ("the use of NoFTL regions allows applying IPA selectively,
only to certain database objects that are dominated by small-sized
updates"): the subscriber table — which takes the UPDATE_LOCATION
traffic — lives in an IPA region, while the insert-dominated
call-forwarding data lives in a plain region.

Run:
    python examples/telecom_hotspot.py
"""

import numpy as np

from repro.core.config import SCHEME_2X4
from repro.engine.database import Database
from repro.flash import FlashChip, FlashGeometry, FlashMode
from repro.ftl import NoFtlDevice
from repro.storage.manager import IpaNativePolicy, StorageManager
from repro.workloads.tatp import TatpWorkload

SUBSCRIBERS = 3000


def main() -> None:
    workload = TatpWorkload(subscribers=SUBSCRIBERS)
    page_size = 4096
    footprint = workload.estimate_pages(page_size)
    blocks = int(footprint / (0.75 * 0.85 * 32)) + 4  # pSLC: 32 usable/block

    chip = FlashChip(
        FlashGeometry(
            page_size=page_size, oob_size=128, pages_per_block=64, blocks=blocks
        ),
        mode=FlashMode.PSLC,
    )
    device = NoFtlDevice(chip, over_provisioning=0.15)

    # Region 1: update-heavy subscriber data -> IPA on.
    hot_blocks = blocks // 2
    device.create_region("subscribers", blocks=hot_blocks, ipa=SCHEME_2X4)
    # Region 2: insert-dominated side tables -> IPA off (no delta area
    # would ever be used; the space goes to records instead).
    device.create_region("side-tables", blocks=blocks - hot_blocks)

    manager = StorageManager(
        device, SCHEME_2X4, IpaNativePolicy(), buffer_capacity=32
    )
    db = Database(manager)

    rng = np.random.default_rng(7)
    workload.build(db, rng)
    manager.clock.reset()
    before = device.stats.snapshot()

    for _ in range(4000):
        workload.transaction(db, rng)
    db.checkpoint()

    stats = device.stats.diff(before)
    tps = db.txn_stats.committed / manager.clock.now_s
    print(f"TATP on pSLC with selective IPA regions "
          f"({SUBSCRIBERS} subscribers):")
    print(f"  throughput           : {tps:,.0f} TPS "
          f"(simulated {manager.clock.now_s:.2f} s)")
    print(f"  transaction mix      : {dict(db.txn_stats.by_type)}")
    print(f"  page writes          : {stats.host_writes}")
    print(f"  write_delta commands : {stats.host_delta_writes}")
    print(f"  in-place appends     : {stats.in_place_appends}")
    print(f"  page invalidations   : {stats.page_invalidations}")
    print(f"  GC migrations/erases : {stats.gc_page_migrations}/"
          f"{stats.gc_erases}")
    share = stats.in_place_appends / max(
        stats.in_place_appends + stats.out_of_place_writes, 1
    )
    print(f"  eviction share via IPA: {share:.0%} "
          f"(location updates are 1-4 changed bytes, ideal for [2x4])")


if __name__ == "__main__":
    main()
