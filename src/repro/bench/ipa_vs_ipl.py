"""Experiment E6 — IPA vs In-Page Logging (paper Section 1, footnote 1).

    "IPA performs 23 % to 62 % less writes and 29 % to 74 % less erases
    as compared to IPL on a range of OLTP workloads. [...] IPL [doubles]
    the read load [which] causes significant performance bottlenecks."

Both systems run the same workload with the same seed (the trace-driven
equivalence the paper used: everything below the buffer pool differs,
everything above is identical).  Reported metrics are *physical*:
programs (page writes + log-sector programs + migrations/merge writes),
erases, and page reads (IPL pays data + log pages per logical read).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.harness import ExperimentConfig, ExperimentResult, run_experiment
from repro.bench.report import render_table
from repro.core.config import SCHEME_2X4
from repro.flash.modes import FlashMode
from repro.workloads.tatp import TatpWorkload
from repro.workloads.tpcb import TpcbWorkload
from repro.workloads.tpcc import TpccWorkload


@dataclass
class IplComparisonRow:
    """Physical-operation comparison of IPA vs IPL on one workload."""

    workload: str
    ipa_writes: int
    ipl_writes: int
    writes_delta_pct: float  # paper: -23 % .. -62 %
    ipa_erases: int
    ipl_erases: int
    erases_delta_pct: float  # paper: -29 % .. -74 %
    ipa_flash_reads: int
    ipl_flash_reads: int
    read_overhead_pct: float  # IPL's extra read load (paper: ~2x)
    ipa_tps: float
    ipl_tps: float


def _factories(fast: bool) -> list:
    if fast:
        return [
            lambda: TpcbWorkload(
                scale=1, accounts_per_branch=5000, history_pages=300
            ),
            lambda: TpccWorkload(
                warehouses=1, customers_per_district=40, items=1200
            ),
            lambda: TatpWorkload(subscribers=2500),
        ]
    return [
        lambda: TpcbWorkload(
            scale=1, accounts_per_branch=12000, history_pages=600
        ),
        lambda: TpccWorkload(warehouses=2, customers_per_district=60, items=2000),
        lambda: TatpWorkload(subscribers=6000),
    ]


def _physical_writes(result: ExperimentResult) -> int:
    """All program operations the chip performed."""
    return result.flash_programs + result.flash_reprograms


def run(transactions: int, fast: bool) -> list[IplComparisonRow]:
    """Run the IPA/IPL pair per workload (both on SLC for parity: IPL's
    log sectors need full-page appendability)."""
    rows = []
    for factory in _factories(fast):
        ipa = run_experiment(
            ExperimentConfig(
                workload=factory(),
                architecture="ipa-native",
                mode=FlashMode.SLC,
                scheme=SCHEME_2X4,
                transactions=transactions,
                buffer_pages=32,
                label="IPA [2x4]",
            )
        )
        ipl = run_experiment(
            ExperimentConfig(
                workload=factory(),
                architecture="ipl",
                mode=FlashMode.SLC,
                transactions=transactions,
                buffer_pages=32,
                label="IPL",
            )
        )
        ipa_writes = _physical_writes(ipa)
        ipl_writes = _physical_writes(ipl)
        ipa_reads = ipa.host_reads
        ipl_reads = ipl.host_reads  # includes log-page reads
        rows.append(
            IplComparisonRow(
                workload=ipa.workload,
                ipa_writes=ipa_writes,
                ipl_writes=ipl_writes,
                writes_delta_pct=(
                    100.0 * (ipa_writes - ipl_writes) / ipl_writes
                    if ipl_writes
                    else 0.0
                ),
                ipa_erases=ipa.flash_erases,
                ipl_erases=ipl.flash_erases,
                erases_delta_pct=(
                    100.0 * (ipa.flash_erases - ipl.flash_erases)
                    / ipl.flash_erases
                    if ipl.flash_erases
                    else 0.0
                ),
                ipa_flash_reads=ipa_reads,
                ipl_flash_reads=ipl_reads,
                read_overhead_pct=(
                    100.0 * (ipl_reads - ipa_reads) / ipa_reads
                    if ipa_reads
                    else 0.0
                ),
                ipa_tps=ipa.tps,
                ipl_tps=ipl.tps,
            )
        )
    return rows


def report(rows: list[IplComparisonRow]) -> str:
    return render_table(
        [
            "Workload",
            "Writes IPA/IPL",
            "delta",
            "Erases IPA/IPL",
            "delta",
            "Reads IPA/IPL",
            "IPL read overhead",
            "TPS IPA/IPL",
        ],
        [
            [
                r.workload,
                f"{r.ipa_writes}/{r.ipl_writes}",
                f"{r.writes_delta_pct:+.0f}%",
                f"{r.ipa_erases}/{r.ipl_erases}",
                f"{r.erases_delta_pct:+.0f}%",
                f"{r.ipa_flash_reads}/{r.ipl_flash_reads}",
                f"+{r.read_overhead_pct:.0f}%",
                f"{r.ipa_tps:.0f}/{r.ipl_tps:.0f}",
            ]
            for r in rows
        ],
        title=(
            "E6 — IPA vs IPL (paper: IPA writes -23..-62%, erases "
            "-29..-74%, IPL ~2x read load)"
        ),
    )

