"""Extension experiment E11 — transaction tail latency.

The paper reports throughput, but GC's most painful symptom in practice
is the *tail*: a transaction that trips garbage collection pays for
page migrations and a multi-millisecond erase inline.  IPA removes most
GC events, so its benefit concentrates exactly where SLAs hurt.

Same TPC-B setup as Table 1; reports p50/p95/p99/max simulated latency
per transaction for the traditional baseline and IPA pSLC.  Every run is
traced, so each row also counts its inline ``gc_erase`` spans and the
share of them attributed to the transaction that tripped collection.

Finding: the claim that IPA removes (nearly) all ``gc_erase`` spans — at
most a tenth of the baseline's — holds at the fast scale (2 500
transactions) but not at the full scale (4 000), where IPA keeps 18
spans against the baseline's 49.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.harness import ExperimentConfig, ExperimentResult, run_experiment
from repro.bench.report import render_table
from repro.core.config import IPA_DISABLED, SCHEME_2X4
from repro.flash.modes import FlashMode
from repro.workloads.tpcb import TpcbWorkload


@dataclass
class LatencyRow:
    """One configuration's latency profile, and the trace that explains it.

    ``result`` is plain (its observation dropped, so a row pickles); the
    trace survives as two numbers.
    """

    label: str
    result: ExperimentResult
    #: Inline ``gc_erase`` spans in the traced run.
    gc_erase_spans: int
    #: Share of those spans attributed to a txn-bearing host write.
    gc_attribution_rate: float


def run(transactions: int) -> list[LatencyRow]:
    """Run the baseline/IPA configurations traced; collect percentiles."""
    rows = []
    for architecture, mode, scheme, channels, background_gc, label in (
        ("traditional", FlashMode.MLC, IPA_DISABLED, 1, False, "[0x0] traditional"),
        ("ipa-native", FlashMode.PSLC, SCHEME_2X4, 1, False, "[2x4] IPA pSLC"),
        # The multi-channel device + incremental background collector:
        # erase pulses overlap across channels and migrations are paid
        # off in small budgeted slices, so the residual GC tail of the
        # single-channel IPA row shrinks further.
        (
            "ipa-native",
            FlashMode.PSLC,
            SCHEME_2X4,
            4,
            True,
            "[2x4] IPA pSLC 4ch+bgGC",
        ),
    ):
        result = run_experiment(
            ExperimentConfig(
                workload=TpcbWorkload(
                    scale=1, accounts_per_branch=8000, history_pages=400
                ),
                architecture=architecture,
                mode=mode,
                scheme=scheme,
                transactions=transactions,
                buffer_pages=24,
                channels=channels,
                background_gc=background_gc,
                label=label,
            ),
            observe=True,
        )
        observation, result.observation = result.observation, None
        rows.append(
            LatencyRow(
                label=label,
                result=result,
                gc_erase_spans=len(observation.tracer.by_name("gc_erase")),
                gc_attribution_rate=observation.gc_attribution_rate(),
            )
        )
    return rows


def report(rows: list[LatencyRow]) -> str:
    return render_table(
        ["Config", "p50 (us)", "p95 (us)", "p99 (us)", "max (us)", "TPS"],
        [
            [
                r.label,
                f"{r.result.latency_p50_us:.0f}",
                f"{r.result.latency_p95_us:.0f}",
                f"{r.result.latency_p99_us:.0f}",
                f"{r.result.latency_max_us:.0f}",
                f"{r.result.tps:.0f}",
            ]
            for r in rows
        ],
        title=(
            "E11 (extension) — TPC-B transaction latency: GC stalls live "
            "in the tail; IPA removes most of them"
        ),
    )

