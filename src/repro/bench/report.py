"""Paper-style result tables: absolute columns + relative-% columns.

Mirrors the format of the paper's Table 1, which shows the traditional
baseline absolutely and each IPA configuration both absolutely and as a
percentage change against the baseline.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.bench.harness import ExperimentResult
from repro.obs.export import render_table

Metric = tuple[str, Callable[[ExperimentResult], float], str]

#: The rows of Table 1, in paper order.
TABLE1_METRICS: list[Metric] = [
    ("Host Reads", lambda r: r.host_reads, "d"),
    ("Host Writes", lambda r: r.host_writes, "d"),
    ("GC Page Migrations", lambda r: r.gc_page_migrations, "d"),
    ("GC Erases", lambda r: r.gc_erases, "d"),
    ("Page Migrations per Host Write", lambda r: r.migrations_per_host_write, ".4f"),
    ("GC Erases per Host Write", lambda r: r.erases_per_host_write, ".4f"),
    ("Transactional Throughput", lambda r: r.tps, ".1f"),
]


def _fmt(value: float, spec: str) -> str:
    if spec == "d":
        return f"{int(value):,}".replace(",", " ")
    return format(value, spec)


def relative_pct(value: float, base: float) -> str:
    """Signed percentage change vs a baseline ('-' when base is 0)."""
    if base == 0:
        return "-"
    pct = 100.0 * (value - base) / base
    return f"{pct:+.0f}"


def render_comparison(
    baseline: ExperimentResult,
    others: Sequence[ExperimentResult],
    metrics: Sequence[Metric] = tuple(TABLE1_METRICS),
    title: str = "",
) -> str:
    """Render a Table-1-style comparison (baseline + N variants)."""
    headers = ["Metric", f"{baseline.config_label} (abs)"]
    for other in others:
        headers.append(f"{other.config_label} (abs)")
        headers.append("rel %")
    rows = []
    for name, getter, spec in metrics:
        base_value = getter(baseline)
        row = [name, _fmt(base_value, spec)]
        for other in others:
            value = getter(other)
            row.append(_fmt(value, spec))
            row.append(relative_pct(value, base_value))
        rows.append(row)
    return render_table(headers, rows, title=title)


def summarize(result: ExperimentResult) -> str:
    """One-paragraph run summary."""
    return (
        f"{result.config_label} on {result.workload}: "
        f"{result.transactions} txns in {result.elapsed_s:.2f} simulated s "
        f"({result.tps:.0f} TPS); reads={result.host_reads} "
        f"writes={result.host_writes} (deltas={result.host_delta_writes}) "
        f"invalidations={result.page_invalidations} "
        f"migrations={result.gc_page_migrations} erases={result.gc_erases}"
    )
