"""Ablations A1-A3 and A5 — the design choices DESIGN.md calls out.

* **A1 — N x M sweep**: delta-area size vs invalidation savings.  Larger
  N admits more residencies before an out-of-place rewrite; larger M
  admits bigger updates; both cost page space.
* **A2 — buffer-pool size**: IPA's benefit depends on short residencies
  (few updates per eviction).  Huge pools accumulate updates past N x M;
  tiny pools thrash reads.
* **A3 — over-provisioning**: GC pressure is the mechanism behind every
  headline number; OP controls how empty victims are.
* **A5 — write-ahead logging on/off**: commit forcing costs throughput;
  the question is whether IPA's advantage survives it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.harness import ExperimentConfig, ExperimentResult, run_experiment
from repro.bench.report import render_table
from repro.core.config import IPA_DISABLED, SCHEME_2X4, IpaScheme
from repro.flash.modes import FlashMode
from repro.workloads.tpcb import TpcbWorkload


#: A2's buffer-pool sizes (frames) and A3's over-provisioning fractions.
BUFFER_SIZES = (8, 16, 32, 64, 128)
OP_FRACTIONS = (0.07, 0.15, 0.30)


def _tpcb() -> TpcbWorkload:
    return TpcbWorkload(scale=1, accounts_per_branch=5000, history_pages=300)


@dataclass
class AblationRow:
    """One configuration point of a sweep."""

    label: str
    result: ExperimentResult

    @property
    def ipa_fraction(self) -> float:
        flushes = self.result.ipa_flushes + self.result.oop_flushes
        return self.result.ipa_flushes / flushes if flushes else 0.0


def sweep_nxm(
    transactions: int,
    schemes: list | None = None,
) -> list[AblationRow]:
    """A1: vary the N x M scheme at fixed workload and buffer."""
    if schemes is None:
        schemes = [
            IpaScheme(1, 4),
            IpaScheme(2, 4),
            IpaScheme(4, 4),
            IpaScheme(2, 8),
            IpaScheme(4, 8),
            IpaScheme(8, 8),
        ]
    rows = []
    for scheme in schemes:
        result = run_experiment(
            ExperimentConfig(
                workload=_tpcb(),
                architecture="ipa-native",
                mode=FlashMode.PSLC,
                scheme=scheme,
                transactions=transactions,
                buffer_pages=32,
                label=str(scheme),
            )
        )
        rows.append(AblationRow(label=str(scheme), result=result))
    return rows


def sweep_buffer(transactions: int) -> list[AblationRow]:
    """A2: vary the buffer pool size with the [2x4] scheme."""
    rows = []
    for size in BUFFER_SIZES:
        result = run_experiment(
            ExperimentConfig(
                workload=_tpcb(),
                architecture="ipa-native",
                mode=FlashMode.PSLC,
                scheme=SCHEME_2X4,
                transactions=transactions,
                buffer_pages=size,
                label=f"buffer={size}",
            )
        )
        rows.append(AblationRow(label=f"{size} frames", result=result))
    return rows


def sweep_over_provisioning(transactions: int) -> list[AblationRow]:
    """A3: vary FTL over-provisioning under the traditional baseline
    (GC sensitivity) and IPA (residual sensitivity)."""
    rows = []
    for architecture, mode in (("traditional", FlashMode.MLC),
                               ("ipa-native", FlashMode.PSLC)):
        for op in OP_FRACTIONS:
            scheme = SCHEME_2X4 if architecture != "traditional" else IPA_DISABLED
            result = run_experiment(
                ExperimentConfig(
                    workload=_tpcb(),
                    architecture=architecture,
                    mode=mode,
                    scheme=scheme,
                    transactions=transactions,
                    buffer_pages=32,
                    over_provisioning=op,
                    label=f"{architecture} OP={op:.0%}",
                )
            )
            rows.append(
                AblationRow(label=f"{architecture} OP={op:.0%}", result=result)
            )
    return rows


def sweep_wal(transactions: int) -> list[AblationRow]:
    """A5: write-ahead logging on/off, baseline and IPA.

    The WAL forces a log-device append at every commit; the question is
    whether IPA's gains survive the extra commit latency (they must —
    the log device is separate, and the paper says regular recovery
    machinery is unaffected).
    """
    rows = []
    for architecture, mode, scheme in (
        ("traditional", FlashMode.MLC, IPA_DISABLED),
        ("ipa-native", FlashMode.PSLC, SCHEME_2X4),
    ):
        for with_wal in (False, True):
            label = f"{architecture} wal={'on' if with_wal else 'off'}"
            result = run_experiment(
                ExperimentConfig(
                    workload=_tpcb(),
                    architecture=architecture,
                    mode=mode,
                    scheme=scheme,
                    transactions=transactions,
                    buffer_pages=32,
                    with_wal=with_wal,
                    label=label,
                )
            )
            rows.append(AblationRow(label=label, result=result))
    return rows


def report(rows: list[AblationRow], title: str) -> str:
    return render_table(
        [
            "Config",
            "IPA evictions",
            "Invalidations",
            "GC migrations",
            "GC erases",
            "TPS",
        ],
        [
            [
                r.label,
                f"{100 * r.ipa_fraction:.0f}%",
                str(r.result.page_invalidations),
                str(r.result.gc_page_migrations),
                str(r.result.gc_erases),
                f"{r.result.tps:.0f}",
            ]
            for r in rows
        ],
        title=title,
    )

