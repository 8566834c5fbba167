"""Extension experiment E10 — IPA across the YCSB core mixes.

Not in the paper, but the natural next question a storage engineer asks:
how does IPA behave outside balance-update OLTP?  The sweep runs YCSB
A/B/C/F under the traditional stack and two IPA schemes, exposing the
M-sensitivity the paper's [2x4] choice hides: YCSB rewrites *whole
fields*, so the scheme's M must cover the field width before any
eviction conforms.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.harness import ExperimentConfig, ExperimentResult, run_experiment
from repro.bench.report import render_table
from repro.core.config import IPA_DISABLED, IpaScheme
from repro.flash.modes import FlashMode
from repro.workloads.ycsb import YcsbWorkload

#: Table size and field width: [2x4]'s M is below the field width,
#: [2x12]'s covers it.
RECORDS = 3000
FIELD_SIZE = 10


@dataclass
class YcsbRow:
    """One (mix, configuration) outcome."""

    mix: str
    label: str
    result: ExperimentResult

    @property
    def ipa_share(self) -> float:
        flushes = self.result.ipa_flushes + self.result.oop_flushes
        return self.result.ipa_flushes / flushes if flushes else 0.0


def run(transactions: int) -> list[YcsbRow]:
    """Sweep mixes x configurations."""
    rows = []
    configurations = [
        ("traditional", None, "[0x0]"),
        ("ipa-native", IpaScheme(2, 4), "[2x4]"),
        ("ipa-native", IpaScheme(2, 12), "[2x12]"),
    ]
    for mix in ("a", "b", "c", "f"):
        for architecture, scheme, label in configurations:
            config = ExperimentConfig(
                workload=YcsbWorkload(
                    records=RECORDS, mix=mix, field_size=FIELD_SIZE
                ),
                architecture=architecture,
                mode=FlashMode.PSLC if scheme else FlashMode.MLC,
                scheme=scheme if scheme else IPA_DISABLED,
                transactions=transactions,
                buffer_pages=24,
                label=f"ycsb-{mix} {label}",
            )
            rows.append(
                YcsbRow(mix=mix, label=label, result=run_experiment(config))
            )
    return rows


def report(rows: list[YcsbRow]) -> str:
    return render_table(
        ["Mix", "Config", "TPS", "IPA evictions", "Invalidations", "GC erases"],
        [
            [
                f"ycsb-{r.mix}",
                r.label,
                f"{r.result.tps:.0f}",
                f"{100 * r.ipa_share:.0f}%",
                str(r.result.page_invalidations),
                str(r.result.gc_erases),
            ]
            for r in rows
        ],
        title=(
            "E10 (extension) — YCSB mixes: whole-field updates need M >= "
            "field width before IPA engages"
        ),
    )

