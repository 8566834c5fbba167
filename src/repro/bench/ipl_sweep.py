"""Ablation A4 — IPL configuration sensitivity.

The IPL comparison depends on Lee & Moon's two sizing knobs: how many
pages per block the log region reserves, and the log-sector granularity.
Bigger log regions postpone merges but multiply the per-read overhead
(every written log page is read on every logical read); smaller sectors
waste less space per eviction flush but fill slots faster.

This sweep replays ONE captured TPC-B trace (identical logical I/O)
through IPL at several configurations, plus IPA as the reference line —
showing that no IPL configuration closes the gap, which is the paper's
argument in Section 1.
"""

from __future__ import annotations

from repro.baselines.ipl import IplConfig
from repro.bench.report import Row
from repro.core.config import SCHEME_2X4
from repro.workloads.tpcb import TpcbWorkload
from repro.workloads.trace import (
    ReplayResult,
    record_trace,
    replay_on_ipa,
    replay_on_ipl,
)


def run(transactions: int) -> list[Row[ReplayResult]]:
    """Capture one trace; replay across IPL configs + the IPA reference."""
    trace = record_trace(
        TpcbWorkload(scale=1, accounts_per_branch=8000, history_pages=400),
        transactions=transactions,
        buffer_pages=32,
    )
    rows = [Row("IPA [2x4] (reference)", replay_on_ipa(trace, SCHEME_2X4))]
    for log_pages, sector in ((4, 512), (8, 512), (16, 512), (8, 256)):
        config = IplConfig(log_pages_per_block=log_pages, sector_size=sector)
        rows.append(
            Row(
                f"IPL log={log_pages}p sector={sector}B",
                replay_on_ipl(trace, config),
            )
        )
    return rows
