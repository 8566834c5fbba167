"""Run every experiment and emit the EXPERIMENTS.md comparison report.

Usage::

    python -m repro.bench.run_all            # full settings (~3-5 min)
    python -m repro.bench.run_all --fast     # CI-scale settings (~1 min)
    python -m repro.bench.run_all --jobs 0   # shard sections across all cores
    python -m repro.bench.run_all --out EXPERIMENTS.md

``--jobs N`` runs the report sections in N worker processes (``0`` =
all cores, default ``1`` = serial); it composes with ``--fast``.  Every
section is self-seeded, so the report is byte-identical at any job
count — parallelism only changes host wall-clock (see
``repro.bench.parallel`` for the determinism contract).

Every section is one entry of the section table, ``SECTIONS``: its
title and paper note, its ``python -m repro`` command (``COMMANDS``
groups the entries by command; the command prints them at the full
scale), its fast and full scale, and how to run and render it.  Each
section also returns its plain results; ``tests/bench/
test_paper_claims.py`` runs every section once at the fast scale and
asserts the paper's claims on them.
"""

from __future__ import annotations

import argparse
import io
import sys
from contextlib import redirect_stdout
from typing import Any, Callable, NamedTuple

from repro.bench import (
    fig1,
    fig2_ispp,
    fig3_layout,
    ipl_sweep,
    mlc_modes,
    tables,
    update_size_analysis,
)
from repro.bench.parallel import parallel_map
from repro.bench.report import render_comparison, render_rows, run_rows


class Section(NamedTuple):
    """One report section: heading, body text and paper-reference note,
    plus the plain, picklable results its claims are asserted on
    (``tests/bench/test_paper_claims.py``)."""

    title: str
    body: str
    paper_note: str
    results: Any


class Experiment(NamedTuple):
    """One entry of the section table: what a report section says, which
    ``python -m repro`` command prints it, and how to run and render it.

    ``run`` takes the section's ``fast`` or ``full`` scale and returns
    its plain results; ``report`` renders them.
    """

    title: str
    paper_note: str
    command: str
    fast: Any
    full: Any
    run: Callable[[Any], Any]
    report: Callable[[Any], str]

    @property
    def id(self) -> str:
        """The experiment id that heads the title (``E1``, ``A3``, ...)."""
        return self.title.split()[0]


def _capture(title: str, fn: Callable[[], Section]) -> tuple[Section, str]:
    """Run one section with its stdout captured.

    Returns ``(result, captured_stdout)``.  If the section raises, the
    partial stdout it produced is *not* discarded: it is attached to the
    exception (``exc.section`` / ``exc.partial_stdout``) and echoed to
    stderr together with the failing section's name, then the exception
    propagates.
    """
    buffer = io.StringIO()
    try:
        with redirect_stdout(buffer):
            result = fn()
    except BaseException as exc:
        partial = buffer.getvalue().rstrip()
        exc.section = title  # type: ignore[attr-defined]
        exc.partial_stdout = partial  # type: ignore[attr-defined]
        print(f"section failed: {title}", file=sys.stderr)
        if partial:
            print(f"--- partial output of {title} ---", file=sys.stderr)
            print(partial, file=sys.stderr)
        raise
    return result, buffer.getvalue().rstrip()


#: The section table, in report order.  Every section is self-seeded
#: (seeds live in its experiment configs), so any subset can run on any
#: worker without changing its output; ``--jobs`` ships a section's index,
#: never the entry.  Each experiment's one fast/full scale pair is set here.
SECTIONS: tuple[Experiment, ...] = (
    Experiment(
        "E1 — Table 1 (TPC-B: [0x0] vs [2x4] pSLC vs [2x4] odd-MLC)",
        "Paper: TPS 260 / 380 (+46%) / 313 (+20%); host reads +47%/+29%; "
        "host writes +50%/+17%; migrations/write -83%/-55%; "
        "erases/write -69%/-59%.",
        "table1", 4.0, 12.0,
        lambda duration_s: run_rows(tables.table1(duration_s)),
        lambda rows: render_comparison(
            rows[0].result,
            [row.result for row in rows[1:]],
            title="Table 1 — TPC-B: traditional [0x0] vs IPA [2x4] "
            "(pSLC, odd-MLC)",
        ),
    ),
    Experiment(
        "E2 — Figure 1 (write-amplification of one small update)",
        "Paper: 10-byte update -> whole 8 KB page + 1-15 invalidations "
        "traditionally; ~100-byte delta-record and no invalidation "
        "with IPA.",
        "fig1", None, None,
        lambda _: fig1.run(),
        fig1.report,
    ),
    Experiment(
        "E3 — Figure 2 (ISPP and the in-place programming rule)",
        "Paper: ISPP raises charge in incremental loops; charge can only "
        "increase without an erase.",
        "fig2", None, None,
        lambda _: fig2_ispp.run(),
        fig2_ispp.report,
    ),
    Experiment(
        "E4 — Figure 3 (page format and delta-area sizing)",
        "Paper: delta-record area = N x (1 + 3M + delta_metadata); "
        "[2x4] is the evaluated configuration.",
        "fig3", None, None,
        lambda _: fig3_layout.run(),
        fig3_layout.report,
    ),
    Experiment(
        "E5 — headline claims (abstract)",
        "Paper: -67% invalidations, -80% GC overhead, +45% throughput, "
        "2x longevity (update-intensive workloads; TPC-B is the anchor).",
        "claims", (2500, True), (6000, False),
        lambda scale: run_rows(tables.claims(*scale)),
        lambda rows: render_rows(
            "E5 — headline claims (paper: -67% invalidations, -80% GC, "
            "+45% TPS, 2x longevity)",
            tables.CLAIM_COLUMNS,
            rows,
        ),
    ),
    Experiment(
        "E6 — IPA vs In-Page Logging",
        "Paper: IPA writes -23..-62%, erases -29..-74% vs IPL; IPL "
        "roughly doubles the read load.",
        "ipl", (2500, True), (6000, False),
        lambda scale: run_rows(tables.ipa_vs_ipl(*scale)),
        lambda rows: render_rows(
            "E6 — IPA vs IPL (paper: IPA writes -23..-62%, erases "
            "-29..-74%, IPL ~2x read load)",
            tables.IPL_COLUMNS,
            rows,
        ),
    ),
    Experiment(
        "E7 — update-size distribution (Section 1)",
        "Paper: >70% of evicted dirty 8 KB pages modify <100 bytes; "
        "DBMS write-amplification ~80x.",
        "update-sizes", (2500, True), (6000, False),
        lambda scale: update_size_analysis.run(*scale),
        update_size_analysis.report,
    ),
    Experiment(
        "E8 — MLC modes and program interference (Section 3)",
        "Paper: IPA safe on SLC/pSLC/odd-MLC; full-MLC appends risk "
        "program interference beyond ECC.",
        "mlc-modes", None, None,
        lambda _: mlc_modes.run(),
        mlc_modes.report,
    ),
    Experiment(
        "A1 — N x M sweep",
        "Design ablation: delta-area budget vs in-place share.",
        "ablations", 1500, 3000,
        lambda transactions: run_rows(tables.nxm(transactions)),
        lambda rows: render_rows(
            "N x M sweep (TPC-B, pSLC)", tables.SWEEP_COLUMNS, rows
        ),
    ),
    Experiment(
        "A2 — buffer-pool sweep",
        "Design ablation: residency length vs conformance.",
        "ablations", 1500, 3000,
        lambda transactions: run_rows(tables.buffer(transactions)),
        lambda rows: render_rows(
            "Buffer sweep (TPC-B, [2x4] pSLC)", tables.SWEEP_COLUMNS, rows
        ),
    ),
    Experiment(
        "A3 — over-provisioning sweep",
        "Design ablation: GC pressure under both write paths.",
        "ablations", 1500, 3000,
        lambda transactions: run_rows(tables.over_provisioning(transactions)),
        lambda rows: render_rows(
            "Over-provisioning sweep (TPC-B)", tables.SWEEP_COLUMNS, rows
        ),
    ),
    # One scale: at 1500 transactions the trace is too short for IPA's
    # physical writes to drop below IPL's (E6b's claim).
    Experiment(
        "A4 — IPL sizing sweep (trace replay)",
        "The paper's trace-replay method: one TPC-B trace through IPL "
        "at several log-region sizes; no point matches IPA's "
        "write+read profile.",
        "ipl-sweep", 3000, 3000,
        ipl_sweep.run,
        lambda rows: render_rows(
            "A4 — IPL sizing sweep on one TPC-B trace (IPA reference on "
            "top; paper: no IPL point matches IPA's write/read profile)",
            tables.IPL_SWEEP_COLUMNS,
            rows,
        ),
    ),
    Experiment(
        "A5 — write-ahead logging on/off",
        "Design ablation: durable commits vs IPA's advantage (separate "
        "log device).",
        "ablations", 1500, 3000,
        lambda transactions: run_rows(tables.wal(transactions)),
        lambda rows: render_rows(
            "Write-ahead logging on/off (TPC-B)", tables.SWEEP_COLUMNS, rows
        ),
    ),
    Experiment(
        "E11 (extension) — transaction tail latency",
        "Beyond the paper: GC stalls live in the tail (p99/max); IPA "
        "removes most of them.",
        "latency", 2500, 4000,
        lambda transactions: run_rows(
            tables.latency(transactions), observe=True
        ),
        lambda rows: render_rows(
            "E11 (extension) — TPC-B transaction latency: GC stalls live "
            "in the tail; IPA removes most of them",
            tables.LATENCY_COLUMNS,
            rows,
        ),
    ),
    Experiment(
        "E10 (extension) — YCSB core mixes",
        "Beyond the paper: YCSB rewrites whole fields, so IPA needs "
        "M >= field width ([2x12]) before it engages.",
        "ycsb", 1200, 2500,
        lambda transactions: run_rows(tables.ycsb(transactions)),
        lambda rows: render_rows(
            "E10 (extension) — YCSB mixes: whole-field updates need M >= "
            "field width before IPA engages",
            tables.YCSB_COLUMNS,
            rows,
        ),
    ),
)


#: ``python -m repro <command>``: the sections each experiment command
#: renders, at full scale, in report order.
COMMANDS: dict[str, list[Experiment]] = {}
for _experiment in SECTIONS:
    COMMANDS.setdefault(_experiment.command, []).append(_experiment)


def run_section(experiment: Experiment, fast: bool = False) -> Section:
    """Run one section at its fast or full scale."""
    results = experiment.run(experiment.fast if fast else experiment.full)
    return Section(
        experiment.title,
        experiment.report(results),
        experiment.paper_note,
        results,
    )


def _run_section(args: tuple[int, bool]) -> Section:
    """Picklable work unit: run SECTIONS[index] under capture."""
    index, fast = args
    experiment = SECTIONS[index]
    section, _stray = _capture(
        f"section {experiment.id}", lambda: run_section(experiment, fast)
    )
    return section


def run_sections(fast: bool = False, jobs: int = 1) -> list[Section]:
    """Run every section once, in report order.

    ``jobs`` shards the sections across that many worker processes
    (0 = all cores).  The sections are identical at any job count.
    """
    work = [(i, fast) for i in range(len(SECTIONS))]
    labels = [f"section {experiment.id}" for experiment in SECTIONS]
    return parallel_map(_run_section, work, jobs=jobs, labels=labels)


def render_section(section: Section) -> str:
    """One section's markdown block: heading, body, paper reference."""
    return "\n".join(
        [
            f"## {section.title}",
            "",
            "```text",
            section.body,
            "```",
            "",
            f"**Paper reference:** {section.paper_note}",
            "",
        ]
    )


def render(sections: list[Section], fast: bool) -> str:
    """The EXPERIMENTS.md body for ``sections``."""
    header = [
        "# EXPERIMENTS — paper vs measured",
        "",
        "Generated by `python -m repro.bench.run_all"
        + (" --fast" if fast else "")
        + "`.",
        "",
        "Absolute numbers cannot match the authors' OpenSSD testbed (this is "
        "a simulator); the *shape* — who wins, by roughly what factor, where "
        "the trade-offs sit — is the reproduction target.  Per-experiment "
        "workload/parameter details: DESIGN.md's experiment index.",
        "",
    ]
    return "\n".join(header + [render_section(s) for s in sections])


def generate(fast: bool = False, jobs: int = 1) -> str:
    """Run everything; return the EXPERIMENTS.md body."""
    return render(run_sections(fast, jobs), fast)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true", help="CI-scale run")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the sections (0 = all cores; default 1)",
    )
    parser.add_argument("--out", default=None, help="write report to file")
    args = parser.parse_args()
    report = generate(fast=args.fast, jobs=args.jobs)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report + "\n")
        print(f"wrote {args.out}")
    else:
        print(report)


if __name__ == "__main__":
    main()
