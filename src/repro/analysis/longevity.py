"""Flash longevity from erase counts (the "doubling the lifetime" claim).

NAND endurance is specified in block program/erase cycles.  For a fixed
amount of useful work (committed transactions), the configuration that
erases less often wears the device proportionally slower — so lifetime
ratios are erase-rate ratios.  The paper: "the reduction of GC overhead
results in doubling the longevity of Flash SSD."

Wear is counted from **total block erases** (``flash_erases``, straight
off the chip counters), not only GC-attributed erases: every erase cycle
consumes endurance no matter which subsystem issued it, and using the
GC-only counter silently dropped the savings whenever a run's erase
traffic was not attributed to GC.  A run with zero erases has infinite
estimated lifetime; ratios involving an infinite side are reported as
``inf`` / ``0.0``, and ``nan`` ("not measurable") when *both* sides are
infinite — never a fabricated 1.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.bench.harness import ExperimentResult

#: Typical endurance of the MLC generation on the OpenSSD board.
MLC_ENDURANCE_CYCLES = 3000
#: pSLC (LSB-only) roughly an order of magnitude higher.
PSLC_ENDURANCE_CYCLES = 30000


@dataclass
class LongevityEstimate:
    """Wear rate and relative lifetime of one configuration."""

    erases_per_txn: float
    endurance_cycles: int
    #: Transactions until the average block hits its endurance limit,
    #: normalized per block (bigger is better).
    txns_per_block_lifetime: float


def estimate_longevity(
    result: ExperimentResult,
    endurance_cycles: int = MLC_ENDURANCE_CYCLES,
) -> LongevityEstimate:
    """Wear estimate for one run (erases assumed wear-levelled)."""
    if result.transactions <= 0:
        raise ValueError("run committed no transactions")
    erases_per_txn = result.flash_erases / result.transactions
    txns = (
        endurance_cycles / erases_per_txn if erases_per_txn > 0 else float("inf")
    )
    return LongevityEstimate(
        erases_per_txn=erases_per_txn,
        endurance_cycles=endurance_cycles,
        txns_per_block_lifetime=txns,
    )


def lifetime_ratio(
    ipa: ExperimentResult,
    baseline: ExperimentResult,
    ipa_endurance: int = MLC_ENDURANCE_CYCLES,
    baseline_endurance: int = MLC_ENDURANCE_CYCLES,
) -> float:
    """How many times longer the IPA configuration's device lives.

    Equal work basis: transactions per erase, scaled by per-mode
    endurance (pSLC cells additionally tolerate far more cycles).

    Edge cases: when only the IPA run is erase-free the ratio is
    ``inf``; when only the baseline is erase-free it is ``0.0``; when
    *neither* run erased anything the comparison is not measurable and
    the result is ``nan`` (render as "n/a" — a literal 1.0 here would
    claim the lifetimes were measured equal, which they were not).
    """
    ipa_est = estimate_longevity(ipa, ipa_endurance)
    base_est = estimate_longevity(baseline, baseline_endurance)
    ipa_txns = ipa_est.txns_per_block_lifetime
    base_txns = base_est.txns_per_block_lifetime
    if base_txns == float("inf"):
        return math.nan if ipa_txns == float("inf") else 0.0
    if ipa_txns == float("inf"):
        return float("inf")
    return ipa_txns / base_txns
