"""Experiment E1 — the paper's Table 1.

TPC-B under three configurations on the same MLC silicon:

* ``[0x0]`` — traditional approach, full-MLC, every update out-of-place;
* ``[2x4] pSLC`` — IPA (native Flash / NoFTL, write_delta) with the chip
  in pseudo-SLC mode;
* ``[2x4] odd-MLC`` — IPA with full capacity, appends on LSB pages only.

Runs are fixed *simulated duration* (the paper ran two hours; its demo
suggested 5-10 minutes), so better configurations complete more
transactions and therefore issue MORE host I/O — exactly the +47 %/+29 %
host-read rows of Table 1.

Expected shape (paper values in EXPERIMENTS.md): pSLC and odd-MLC beat
[0x0] in throughput (paper: +46 % / +20 %) with large reductions in GC
migrations (-75 % / -48 %) and erases (-53 % / -52 %).
"""

from __future__ import annotations

from repro.bench.harness import ExperimentConfig, ExperimentResult, run_experiment
from repro.bench.report import render_comparison
from repro.core.config import IPA_DISABLED, SCHEME_2X4
from repro.flash.modes import FlashMode
from repro.workloads.tpcb import TpcbWorkload

#: The Table-1 setup; only the run length differs between scales.
ACCOUNTS_PER_BRANCH = 12000
HISTORY_PAGES = 400
BUFFER_PAGES = 24


def run(duration_s: float) -> dict[str, ExperimentResult]:
    """Run all three Table-1 configurations; returns results by label."""
    results = {}
    for label, architecture, mode, scheme in (
        ("[0x0]", "traditional", FlashMode.MLC, IPA_DISABLED),
        ("[2x4] pSLC", "ipa-native", FlashMode.PSLC, SCHEME_2X4),
        ("[2x4] odd-MLC", "ipa-native", FlashMode.ODD_MLC, SCHEME_2X4),
    ):
        results[label] = run_experiment(
            ExperimentConfig(
                workload=TpcbWorkload(
                    scale=1,
                    accounts_per_branch=ACCOUNTS_PER_BRANCH,
                    history_pages=HISTORY_PAGES,
                ),
                architecture=architecture,
                mode=mode,
                scheme=scheme,
                duration_s=duration_s,
                buffer_pages=BUFFER_PAGES,
                label=label,
            )
        )
    return results


def report(results: dict[str, ExperimentResult]) -> str:
    """Render the Table-1-style comparison."""
    return render_comparison(
        results["[0x0]"],
        [results["[2x4] pSLC"], results["[2x4] odd-MLC"]],
        title="Table 1 — TPC-B: traditional [0x0] vs IPA [2x4] (pSLC, odd-MLC)",
    )

