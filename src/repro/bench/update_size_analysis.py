"""Experiment E7 — the Section-1 motivation analysis.

    "in more than 70 % of evicted dirty 8KB-pages, less than 100 bytes of
    net data is modified.  Thus, for 100 modified bytes in total the DBMS
    writes out the whole 8KB database pages.  This results in the DBMS
    write-amplification ... of about 80x."

Runs every workload (TPC-B, TPC-C, TATP, LinkBench) on the traditional
stack with 8 KB pages, collecting the buffer pool's per-eviction
net-modified-bytes series and the DBMS write-amplification.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.update_sizes import UpdateSizeReport, analyze_update_sizes
from repro.analysis.write_amplification import write_amplification
from repro.bench.harness import ExperimentConfig, run_experiment
from repro.bench.report import render_table
from repro.flash.modes import FlashMode
from repro.workloads.linkbench import LinkBenchWorkload
from repro.workloads.tatp import TatpWorkload
from repro.workloads.tpcb import TpcbWorkload
from repro.workloads.tpcc import TpccWorkload


@dataclass
class UpdateSizeRow:
    """One workload's eviction-size statistics."""

    workload: str
    report: UpdateSizeReport
    dbms_wa: float


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
            lambda: LinkBenchWorkload(nodes=1500, links_per_node=3),
        ]
    return [
        lambda: TpcbWorkload(
            scale=1, accounts_per_branch=12000, history_pages=600
        ),
        lambda: TpccWorkload(warehouses=2, customers_per_district=60, items=2000),
        lambda: TatpWorkload(subscribers=6000),
        lambda: LinkBenchWorkload(nodes=4000, links_per_node=4),
    ]


def run(transactions: int, fast: bool) -> list[UpdateSizeRow]:
    """Collect the eviction-size distribution per workload (8 KB pages)."""
    rows = []
    for factory in _factories(fast):
        result = run_experiment(
            ExperimentConfig(
                workload=factory(),
                architecture="traditional",
                mode=FlashMode.MLC,
                transactions=transactions,
                buffer_pages=32,
                page_size=8192,  # the claim is stated for 8 KB pages
            )
        )
        rows.append(
            UpdateSizeRow(
                workload=result.workload,
                report=analyze_update_sizes(result.pool.dirty_eviction_net_bytes),
                dbms_wa=write_amplification(result).dbms_wa,
            )
        )
    return rows


def report(rows: list[UpdateSizeRow]) -> str:
    return render_table(
        [
            "Workload",
            "Dirty evictions",
            "< 100 B net",
            "median B",
            "p90 B",
            "DBMS WA",
        ],
        [
            [
                r.workload,
                str(r.report.samples),
                f"{100 * r.report.fraction_under_100b:.0f}%",
                f"{r.report.median_bytes:.0f}",
                f"{r.report.p90_bytes:.0f}",
                f"{r.dbms_wa:.0f}x",
            ]
            for r in rows
        ],
        title=(
            "E7 — net modified bytes per evicted dirty 8 KB page "
            "(paper: >70% under 100 B; DBMS WA ~80x)"
        ),
    )

