"""The paper's tables as data: labelled configs and the columns they print.

Each function below returns one experiment's rows at a given scale (a
list of :data:`~repro.bench.report.Spec`); ``repro.bench.run_all`` runs
them with :func:`~repro.bench.report.run_rows` and prints them under a
column set with :func:`~repro.bench.report.render_rows` (E1 under
:func:`~repro.bench.report.render_comparison`, the paper's transposed
layout).  Every config builds its own workload, so no run sees another
run's generator.

* **E1 — Table 1.**  TPC-B on the same MLC silicon under ``[0x0]``
  (traditional, every update out of place), ``[2x4] pSLC`` (IPA on the
  native interface, chip in pseudo-SLC mode) and ``[2x4] odd-MLC``
  (full capacity, appends on LSB pages only).  Runs last a fixed
  *simulated* time, as the paper's did, so faster configurations
  complete more transactions and issue MORE host I/O — exactly Table
  1's +47 %/+29 % host-read rows.
* **E5 — the abstract's headline claims** ("67 % less page
  invalidations resulting in 80 % lower garbage collection overhead,
  which yields a 45 % increase in transactional throughput, while
  doubling Flash longevity"): ``[0x0]`` against ``[2x4]`` pSLC on
  TPC-B, TPC-C and TATP with an equal transaction budget, so the
  invalidation, GC and longevity reductions compare directly.
* **E6 — IPA against In-Page Logging** (Section 1, footnote 1: "IPA
  performs 23 % to 62 % less writes and 29 % to 74 % less erases as
  compared to IPL", and IPL's extra read load).  Both run the same
  workload and seed on SLC (IPL's log sectors need full-page
  appendability); everything below the buffer pool differs.  The
  metrics are physical: programs, erases and page reads (IPL reads data
  + log pages per logical read).
* **A1–A3, A5 — ablations.**  A1: larger N admits more residencies
  before an out-of-place rewrite, larger M admits bigger updates, both
  cost page space.  A2: IPA's benefit depends on short residencies;
  huge pools accumulate updates past N x M, tiny pools thrash reads.
  A3: over-provisioning sets how empty GC victims are.  A5: commit
  forcing costs throughput; does IPA's advantage survive it?
* **E10 (extension) — YCSB A/B/C/F.**  YCSB rewrites *whole fields*,
  so the scheme's M must cover the field width before any eviction
  conforms: ``[2x4]``'s M is below the 10-byte field, ``[2x12]``'s
  covers it.
* **E11 (extension) — transaction tail latency.**  A transaction that
  trips GC pays migrations and a multi-millisecond erase inline; IPA
  removes most GC events, so its benefit concentrates in the tail.
  Every run is traced, so each row also counts its inline ``gc_erase``
  spans and the share attributed to the transaction that tripped
  collection.  Finding: the claim that IPA removes (nearly) all of
  them — at most a tenth of the baseline's — holds at the fast scale
  (2 500 transactions) but not at the full scale (4 000), where IPA
  keeps 18 spans against the baseline's 49.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.analysis.longevity import MLC_ENDURANCE_CYCLES, lifetime_ratio
from repro.bench.harness import ExperimentConfig
from repro.bench.report import Column, Row, Spec, fmt_pct, fmt_ratio, relative_pct
from repro.core.config import IPA_DISABLED, SCHEME_2X4, IpaScheme
from repro.flash.modes import FlashMode
from repro.workloads.base import Workload
from repro.workloads.tatp import TatpWorkload
from repro.workloads.tpcb import TpcbWorkload
from repro.workloads.tpcc import TpccWorkload
from repro.workloads.ycsb import YcsbWorkload

#: The two write paths the tables set against each other.
TRADITIONAL: dict[str, Any] = {
    "architecture": "traditional",
    "mode": FlashMode.MLC,
    "scheme": IPA_DISABLED,
}
IPA: dict[str, Any] = {
    "architecture": "ipa-native",
    "mode": FlashMode.PSLC,
    "scheme": SCHEME_2X4,
}

#: A1's schemes, A2's buffer-pool sizes (frames) and A3's
#: over-provisioning fractions.
NXM_SCHEMES = (
    IpaScheme(1, 4),
    IpaScheme(2, 4),
    IpaScheme(4, 4),
    IpaScheme(2, 8),
    IpaScheme(4, 8),
    IpaScheme(8, 8),
)
BUFFER_SIZES = (8, 16, 32, 64, 128)
OP_FRACTIONS = (0.07, 0.15, 0.30)


def _row(label: str, workload: Workload, **stack: Any) -> Spec:
    """One labelled row; its config carries the same label."""
    return label, ExperimentConfig(workload=workload, label=label, **stack)


def table1(duration_s: float) -> list[Spec]:
    """E1: the three Table-1 configurations for ``duration_s``."""
    return [
        _row(
            label,
            TpcbWorkload(scale=1, accounts_per_branch=12000, history_pages=400),
            architecture=architecture,
            mode=mode,
            scheme=scheme,
            duration_s=duration_s,
            buffer_pages=24,
        )
        for label, architecture, mode, scheme in (
            ("[0x0]", "traditional", FlashMode.MLC, IPA_DISABLED),
            ("[2x4] pSLC", "ipa-native", FlashMode.PSLC, SCHEME_2X4),
            ("[2x4] odd-MLC", "ipa-native", FlashMode.ODD_MLC, SCHEME_2X4),
        )
    ]


def claims(transactions: int, fast: bool) -> list[Spec]:
    """E5: per workload, IPA [2x4] pSLC paired with its [0x0] baseline.

    TATP runs 4x the shared budget: the mix is ~80% reads, so at the
    common budget neither configuration fills the device far enough to
    garbage-collect — the GC and longevity columns would both be
    structurally "n/a" (measuring nothing), not an IPA result.
    """

    def workloads() -> list[Workload]:
        if fast:
            return [
                TpcbWorkload(scale=1, accounts_per_branch=6000, history_pages=300),
                TpccWorkload(warehouses=1, customers_per_district=40, items=1500),
                TatpWorkload(subscribers=2500),
            ]
        return [
            TpcbWorkload(scale=1, accounts_per_branch=12000, history_pages=600),
            TpccWorkload(warehouses=2, customers_per_district=60, items=2000),
            TatpWorkload(subscribers=6000),
        ]

    rows: list[Spec] = []
    for ipa, base in zip(workloads(), workloads()):
        budget = transactions * (4 if isinstance(ipa, TatpWorkload) else 1)
        rows.append((
            ipa.name,
            ExperimentConfig(
                workload=ipa, transactions=budget, buffer_pages=32,
                label="[2x4] pSLC", **IPA,
            ),
            ExperimentConfig(
                workload=base, transactions=budget, buffer_pages=32,
                label="[0x0]", **TRADITIONAL,
            ),
        ))
    return rows


def longevity(row: Row) -> float:
    """E5's flash lifetime ratio of IPA against the baseline.

    Same endurance basis: the paper's "doubling" comes from the
    erase-rate reduction alone (pSLC cells' additional per-cell
    endurance headroom would multiply on top).
    """
    assert row.baseline is not None
    return lifetime_ratio(
        row.result,
        row.baseline,
        ipa_endurance=MLC_ENDURANCE_CYCLES,
        baseline_endurance=MLC_ENDURANCE_CYCLES,
    )


def ipa_vs_ipl(transactions: int, fast: bool) -> list[Spec]:
    """E6: per workload, IPA [2x4] paired with IPL, both on SLC."""

    def workloads() -> list[Workload]:
        if fast:
            return [
                TpcbWorkload(scale=1, accounts_per_branch=5000, history_pages=300),
                TpccWorkload(warehouses=1, customers_per_district=40, items=1200),
                TatpWorkload(subscribers=2500),
            ]
        return [
            TpcbWorkload(scale=1, accounts_per_branch=12000, history_pages=600),
            TpccWorkload(warehouses=2, customers_per_district=60, items=2000),
            TatpWorkload(subscribers=6000),
        ]

    return [
        (
            ipa.name,
            ExperimentConfig(
                workload=ipa, architecture="ipa-native", mode=FlashMode.SLC,
                scheme=SCHEME_2X4, transactions=transactions, buffer_pages=32,
                label="IPA [2x4]",
            ),
            ExperimentConfig(
                workload=ipl, architecture="ipl", mode=FlashMode.SLC,
                transactions=transactions, buffer_pages=32, label="IPL",
            ),
        )
        for ipa, ipl in zip(workloads(), workloads())
    ]


def _ablation_tpcb() -> TpcbWorkload:
    return TpcbWorkload(scale=1, accounts_per_branch=5000, history_pages=300)


def nxm(transactions: int) -> list[Spec]:
    """A1: the N x M scheme at fixed workload and buffer."""
    return [
        _row(
            str(scheme), _ablation_tpcb(), architecture="ipa-native",
            mode=FlashMode.PSLC, scheme=scheme, transactions=transactions,
            buffer_pages=32,
        )
        for scheme in NXM_SCHEMES
    ]


def buffer(transactions: int) -> list[Spec]:
    """A2: the buffer-pool size under IPA [2x4]."""
    return [
        _row(
            f"{size} frames", _ablation_tpcb(), transactions=transactions,
            buffer_pages=size, **IPA,
        )
        for size in BUFFER_SIZES
    ]


def over_provisioning(transactions: int) -> list[Spec]:
    """A3: FTL over-provisioning under the traditional baseline (GC
    sensitivity) and IPA (residual sensitivity)."""
    return [
        _row(
            f"{name} OP={op:.0%}", _ablation_tpcb(), transactions=transactions,
            buffer_pages=32, over_provisioning=op, **stack,
        )
        for name, stack in (("traditional", TRADITIONAL), ("ipa-native", IPA))
        for op in OP_FRACTIONS
    ]


def wal(transactions: int) -> list[Spec]:
    """A5: write-ahead logging on/off, baseline and IPA.

    The WAL forces a log-device append at every commit; the question is
    whether IPA's gains survive the extra commit latency (they must —
    the log device is separate, and the paper says regular recovery
    machinery is unaffected).
    """
    return [
        _row(
            f"{name} wal={'on' if with_wal else 'off'}", _ablation_tpcb(),
            transactions=transactions, buffer_pages=32, with_wal=with_wal,
            **stack,
        )
        for name, stack in (("traditional", TRADITIONAL), ("ipa-native", IPA))
        for with_wal in (False, True)
    ]


def ycsb(transactions: int) -> list[Spec]:
    """E10: YCSB A/B/C/F under [0x0], [2x4] and [2x12] (3 000 records
    of 10-byte fields)."""
    return [
        _row(
            label,
            YcsbWorkload(records=3000, mix=mix, field_size=10),
            transactions=transactions,
            buffer_pages=24,
            **stack,
        )
        for mix in ("a", "b", "c", "f")
        for label, stack in (
            ("[0x0]", TRADITIONAL),
            ("[2x4]", IPA),
            ("[2x12]", {**IPA, "scheme": IpaScheme(2, 12)}),
        )
    ]


def latency(transactions: int) -> list[Spec]:
    """E11: the baseline and IPA on Table 1's TPC-B, run traced."""

    def tpcb() -> TpcbWorkload:
        return TpcbWorkload(scale=1, accounts_per_branch=8000, history_pages=400)

    return [
        _row(
            "[0x0] traditional", tpcb(), transactions=transactions,
            buffer_pages=24, **TRADITIONAL,
        ),
        _row(
            "[2x4] IPA pSLC", tpcb(), transactions=transactions,
            buffer_pages=24, **IPA,
        ),
        # The multi-channel device + incremental background collector:
        # erase pulses overlap across channels and migrations are paid
        # off in small budgeted slices, so the residual GC tail of the
        # single-channel IPA row shrinks further.
        _row(
            "[2x4] IPA pSLC 4ch+bgGC", tpcb(), transactions=transactions,
            buffer_pages=24, channels=4, background_gc=True, **IPA,
        ),
    ]


def _change(metric: str) -> Callable[[Row], str]:
    """The cell of ``metric``'s percent change against the baseline."""
    return lambda row: fmt_pct(relative_pct(*row.pair(metric)))


def _both(metric: str, spec: str = "") -> Callable[[Row], str]:
    """The cell ``run/baseline`` of ``metric``."""

    def cell(row: Row) -> str:
        value, base = row.pair(metric)
        return f"{value:{spec}}/{base:{spec}}"

    return cell


#: A1-A3 and A5.
SWEEP_COLUMNS: list[Column] = [
    ("Config", lambda r: r.label),
    ("IPA evictions", lambda r: f"{100 * r.result.storage.ipa_share:.0f}%"),
    ("Invalidations", lambda r: str(r.result.device.page_invalidations)),
    ("GC migrations", lambda r: str(r.result.device.gc_page_migrations)),
    ("GC erases", lambda r: str(r.result.device.gc_erases)),
    ("TPS", lambda r: f"{r.result.tps:.0f}"),
]

#: E5.
CLAIM_COLUMNS: list[Column] = [
    ("Workload", lambda r: r.label),
    ("Invalidations", _change("device.page_invalidations")),
    ("GC overhead", _change("device.gc_overhead")),
    ("Throughput", _change("tps")),
    ("Longevity", lambda r: fmt_ratio(longevity(r))),
]

#: E6: IPA's run against IPL's.
IPL_COLUMNS: list[Column] = [
    ("Workload", lambda r: r.label),
    ("Writes IPA/IPL", _both("flash.program_ops")),
    ("delta", _change("flash.program_ops")),
    ("Erases IPA/IPL", _both("flash.block_erases")),
    ("delta", _change("flash.block_erases")),
    ("Reads IPA/IPL", _both("device.host_reads")),
    (
        "IPL read overhead",
        lambda r: fmt_pct(relative_pct(*r.pair("device.host_reads")[::-1])),
    ),
    ("TPS IPA/IPL", _both("tps", ".0f")),
]

#: A4: one trace replayed per row.
IPL_SWEEP_COLUMNS: list[Column] = [
    ("Config", lambda r: r.label),
    ("Physical writes", lambda r: str(r.result.flash.program_ops)),
    ("Erases", lambda r: str(r.result.flash.block_erases)),
    ("Flash reads", lambda r: str(r.result.flash.page_reads)),
]

#: E10.
YCSB_COLUMNS: list[Column] = [
    ("Mix", lambda r: r.result.workload),
    ("Config", lambda r: r.label),
    ("TPS", lambda r: f"{r.result.tps:.0f}"),
    ("IPA evictions", lambda r: f"{100 * r.result.storage.ipa_share:.0f}%"),
    ("Invalidations", lambda r: str(r.result.device.page_invalidations)),
    ("GC erases", lambda r: str(r.result.device.gc_erases)),
]

#: E11.
LATENCY_COLUMNS: list[Column] = [
    ("Config", lambda r: r.label),
    ("p50 (us)", lambda r: f"{r.result.latency_p50_us:.0f}"),
    ("p95 (us)", lambda r: f"{r.result.latency_p95_us:.0f}"),
    ("p99 (us)", lambda r: f"{r.result.latency_p99_us:.0f}"),
    ("max (us)", lambda r: f"{r.result.latency_max_us:.0f}"),
    ("TPS", lambda r: f"{r.result.tps:.0f}"),
]
