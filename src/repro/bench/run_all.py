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

Each section also returns its plain results; ``tests/bench/
test_paper_claims.py`` runs every section once at the fast scale and
asserts the paper's claims on them.  ``python -m repro <experiment>``
prints the sections of one experiment at the full scale (``COMMANDS``).
"""

from __future__ import annotations

import argparse
import io
import sys
from contextlib import redirect_stdout
from typing import Any, Callable, NamedTuple

from repro.bench import (
    ablations,
    claims,
    fig1,
    fig2_ispp,
    fig3_layout,
    ipa_vs_ipl,
    ipl_sweep,
    mlc_modes,
    table1,
    tail_latency,
    update_size_analysis,
    ycsb_mixes,
)
from repro.bench.parallel import parallel_map


class Section(NamedTuple):
    """One report section: heading, body text and paper-reference note,
    plus the plain, picklable results its claims are asserted on
    (``tests/bench/test_paper_claims.py``)."""

    title: str
    body: str
    paper_note: str
    results: Any


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


# ---------------------------------------------------------------------------
# Sections.  Module-level functions (not closures) so that --jobs can ship
# them to worker processes by name; each takes only `fast` and returns a
# finished Section, making it an independently schedulable unit of work.
# Each experiment's one fast/full scale pair is set here.
# ---------------------------------------------------------------------------


def _section_table1(fast: bool) -> Section:
    results = table1.run(duration_s=4.0 if fast else 12.0)
    return Section(
        "E1 — Table 1 (TPC-B: [0x0] vs [2x4] pSLC vs [2x4] odd-MLC)",
        table1.report(results),
        "Paper: TPS 260 / 380 (+46%) / 313 (+20%); host reads +47%/+29%; "
        "host writes +50%/+17%; migrations/write -83%/-55%; "
        "erases/write -69%/-59%.",
        results,
    )


def _section_fig1(fast: bool) -> Section:
    rows = fig1.run()
    return Section(
        "E2 — Figure 1 (write-amplification of one small update)",
        fig1.report(rows),
        "Paper: 10-byte update -> whole 8 KB page + 1-15 invalidations "
        "traditionally; ~100-byte delta-record and no invalidation "
        "with IPA.",
        rows,
    )


def _section_fig2(fast: bool) -> Section:
    demo = fig2_ispp.run()
    return Section(
        "E3 — Figure 2 (ISPP and the in-place programming rule)",
        fig2_ispp.report(demo),
        "Paper: ISPP raises charge in incremental loops; charge can only "
        "increase without an erase.",
        demo,
    )


def _section_fig3(fast: bool) -> Section:
    rows = fig3_layout.run()
    return Section(
        "E4 — Figure 3 (page format and delta-area sizing)",
        fig3_layout.report(rows),
        "Paper: delta-record area = N x (1 + 3M + delta_metadata); "
        "[2x4] is the evaluated configuration.",
        rows,
    )


def _section_claims(fast: bool) -> Section:
    rows = claims.run(transactions=2500 if fast else 6000, fast=fast)
    return Section(
        "E5 — headline claims (abstract)",
        claims.report(rows),
        "Paper: -67% invalidations, -80% GC overhead, +45% throughput, "
        "2x longevity (update-intensive workloads; TPC-B is the anchor).",
        rows,
    )


def _section_ipa_vs_ipl(fast: bool) -> Section:
    rows = ipa_vs_ipl.run(transactions=2500 if fast else 6000, fast=fast)
    return Section(
        "E6 — IPA vs In-Page Logging",
        ipa_vs_ipl.report(rows),
        "Paper: IPA writes -23..-62%, erases -29..-74% vs IPL; IPL "
        "roughly doubles the read load.",
        rows,
    )


def _section_update_sizes(fast: bool) -> Section:
    rows = update_size_analysis.run(transactions=2500 if fast else 6000, fast=fast)
    return Section(
        "E7 — update-size distribution (Section 1)",
        update_size_analysis.report(rows),
        "Paper: >70% of evicted dirty 8 KB pages modify <100 bytes; "
        "DBMS write-amplification ~80x.",
        rows,
    )


def _section_mlc_modes(fast: bool) -> Section:
    rows = mlc_modes.run()
    return Section(
        "E8 — MLC modes and program interference (Section 3)",
        mlc_modes.report(rows),
        "Paper: IPA safe on SLC/pSLC/odd-MLC; full-MLC appends risk "
        "program interference beyond ECC.",
        rows,
    )


def _section_ablation_nxm(fast: bool) -> Section:
    rows = ablations.sweep_nxm(transactions=1500 if fast else 3000)
    return Section(
        "A1 — N x M sweep",
        ablations.report(rows, "N x M sweep (TPC-B, pSLC)"),
        "Design ablation: delta-area budget vs in-place share.",
        rows,
    )


def _section_ablation_buffer(fast: bool) -> Section:
    rows = ablations.sweep_buffer(transactions=1500 if fast else 3000)
    return Section(
        "A2 — buffer-pool sweep",
        ablations.report(rows, "Buffer sweep (TPC-B, [2x4] pSLC)"),
        "Design ablation: residency length vs conformance.",
        rows,
    )


def _section_ablation_op(fast: bool) -> Section:
    rows = ablations.sweep_over_provisioning(transactions=1500 if fast else 3000)
    return Section(
        "A3 — over-provisioning sweep",
        ablations.report(rows, "Over-provisioning sweep (TPC-B)"),
        "Design ablation: GC pressure under both write paths.",
        rows,
    )


def _section_ipl_sweep(fast: bool) -> Section:
    # One scale: at 1500 transactions the trace is too short for IPA's
    # physical writes to drop below IPL's (E6b's claim).
    rows = ipl_sweep.run(transactions=3000)
    return Section(
        "A4 — IPL sizing sweep (trace replay)",
        ipl_sweep.report(rows),
        "The paper's trace-replay method: one TPC-B trace through IPL "
        "at several log-region sizes; no point matches IPA's "
        "write+read profile.",
        rows,
    )


def _section_ablation_wal(fast: bool) -> Section:
    rows = ablations.sweep_wal(transactions=1500 if fast else 3000)
    return Section(
        "A5 — write-ahead logging on/off",
        ablations.report(rows, "Write-ahead logging on/off (TPC-B)"),
        "Design ablation: durable commits vs IPA's advantage (separate "
        "log device).",
        rows,
    )


def _section_tail_latency(fast: bool) -> Section:
    rows = tail_latency.run(transactions=2500 if fast else 4000)
    return Section(
        "E11 (extension) — transaction tail latency",
        tail_latency.report(rows),
        "Beyond the paper: GC stalls live in the tail (p99/max); IPA "
        "removes most of them.",
        rows,
    )


def _section_ycsb_mixes(fast: bool) -> Section:
    rows = ycsb_mixes.run(transactions=1200 if fast else 2500)
    return Section(
        "E10 (extension) — YCSB core mixes",
        ycsb_mixes.report(rows),
        "Beyond the paper: YCSB rewrites whole fields, so IPA needs "
        "M >= field width ([2x12]) before it engages.",
        rows,
    )


#: Report order.  Each entry is independent and self-seeded (seeds live in
#: the section's own experiment configs), so any subset can run on any
#: worker without changing its output.
SECTIONS = (
    _section_table1,
    _section_fig1,
    _section_fig2,
    _section_fig3,
    _section_claims,
    _section_ipa_vs_ipl,
    _section_update_sizes,
    _section_mlc_modes,
    _section_ablation_nxm,
    _section_ablation_buffer,
    _section_ablation_op,
    _section_ipl_sweep,
    _section_ablation_wal,
    _section_tail_latency,
    _section_ycsb_mixes,
)


#: ``python -m repro <command>``: the sections each experiment command
#: renders, at full scale.
COMMANDS = {
    "table1": (_section_table1,),
    "fig1": (_section_fig1,),
    "fig2": (_section_fig2,),
    "fig3": (_section_fig3,),
    "claims": (_section_claims,),
    "ipl": (_section_ipa_vs_ipl,),
    "update-sizes": (_section_update_sizes,),
    "mlc-modes": (_section_mlc_modes,),
    "ablations": (
        _section_ablation_nxm,
        _section_ablation_buffer,
        _section_ablation_op,
        _section_ablation_wal,
    ),
    "ipl-sweep": (_section_ipl_sweep,),
    "ycsb": (_section_ycsb_mixes,),
    "latency": (_section_tail_latency,),
}


def _run_section(args: tuple[int, bool]) -> Section:
    """Picklable work unit: run SECTIONS[index] under capture."""
    index, fast = args
    fn = SECTIONS[index]
    title = fn.__name__.replace("_section_", "section ")
    section, _stray = _capture(title, lambda: fn(fast))
    return section


def run_sections(fast: bool = False, jobs: int = 1) -> list[Section]:
    """Run every section once, in report order.

    ``jobs`` shards the sections across that many worker processes
    (0 = all cores).  The sections are identical at any job count.
    """
    work = [(i, fast) for i in range(len(SECTIONS))]
    labels = [fn.__name__.replace("_section_", "section ") for fn in SECTIONS]
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
