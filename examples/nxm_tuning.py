"""Tuning the N x M scheme for a workload (ablation A1 as a user story).

The delta-record area is a space-for-writes trade: every page gives up
``N x (1 + 3M + 32)`` bytes so that up to N small updates can be
appended in place.  This example sweeps schemes over TPC-B and prints
the trade-off so you can pick a configuration the way the paper's demo
GUI let the audience pick one.

Run:
    python examples/nxm_tuning.py
"""

from repro.bench.report import render_rows, run_rows
from repro.bench.tables import SWEEP_COLUMNS, nxm


def main() -> None:
    # nxm() sweeps tables.NXM_SCHEMES: [1x4], [2x4] (the paper's
    # Table-1 choice), [4x4], [2x8], [4x8] and [8x8].
    rows = run_rows(nxm(transactions=2000))
    print(render_rows(
        "N x M sweep on TPC-B (pSLC, write_delta)", SWEEP_COLUMNS, rows
    ))
    print()
    print("Reading the table:")
    print(" - IPA evictions grows with N (more residencies before an")
    print("   out-of-place rewrite) and with M (bigger updates conform);")
    print(" - the delta area steals page space: at [8x8] every page gives")
    print("   up 456 bytes, which costs extra pages and buffer misses;")
    print(" - the paper's [2x4] is the sweet spot for balance-update")
    print("   workloads: 90 bytes of overhead, ~2/3 of evictions in-place.")
    best = max(rows, key=lambda r: r.result.tps)
    print(f"\nBest throughput in this sweep: {best.label} "
          f"at {best.result.tps:.0f} TPS")


if __name__ == "__main__":
    main()
