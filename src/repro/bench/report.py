"""Result tables: one row type, one runner, one renderer.

An experiment's table is data (``repro.bench.tables``): a list of
labelled :class:`~repro.bench.harness.ExperimentConfig` rows
(:data:`Spec`) and a column set of ``(header, row -> cell)`` pairs.
:func:`run_rows` runs the rows in order and :func:`render_rows` prints
them.  :func:`render_comparison` keeps the paper's transposed Table-1
layout: one metric per line, the traditional baseline absolutely and
each IPA configuration both absolutely and as a percentage change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence, Union

from repro.bench.harness import (
    ExperimentConfig,
    ExperimentResult,
    ObservedResult,
    run_experiment,
)
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


@dataclass
class Row:
    """One labelled run of a table.

    A paired table keeps the run it compares against as ``baseline``
    (E5: the traditional stack, E6: IPL).  A traced row keeps the two
    numbers its trace gave and drops the observation, so a row pickles.
    """

    label: str
    result: ExperimentResult
    baseline: Optional[ExperimentResult] = None
    #: Inline ``gc_erase`` spans in the traced run.
    gc_erase_spans: int = 0
    #: Share of those spans attributed to a txn-bearing host write.
    gc_attribution_rate: float = 0.0

    def pair(self, metric: str) -> tuple[Any, Any]:
        """``metric`` of this row's run and of its baseline."""
        assert self.baseline is not None, f"{self.label} has no baseline"
        return getattr(self.result, metric), getattr(self.baseline, metric)


#: A row before it runs: its label and config, and for a paired table
#: the baseline's config.
Spec = Union[
    tuple[str, ExperimentConfig],
    tuple[str, ExperimentConfig, ExperimentConfig],
]

#: A column: its header and the cell it prints for a row.
Column = tuple[str, Callable[[Row], str]]


def run_rows(specs: Sequence[Spec], observe: bool = False) -> list[Row]:
    """Run each row's config, then its baseline's, in order.

    ``observe`` traces each row's run: the row keeps the trace's inline
    ``gc_erase`` span count and their attribution rate.
    """
    rows = []
    for label, config, *baseline in specs:
        result = run_experiment(config, observe=observe)
        row = Row(label, result, run_experiment(baseline[0]) if baseline else None)
        if isinstance(result, ObservedResult):
            observation, result.observation = result.observation, None
            assert observation is not None
            row.gc_erase_spans = len(observation.tracer.by_name("gc_erase"))
            row.gc_attribution_rate = observation.gc_attribution_rate()
        rows.append(row)
    return rows


def render_rows(title: str, columns: Sequence[Column], rows: Sequence[Row]) -> str:
    """``rows`` as a table with one cell per column."""
    return render_table(
        [header for header, _ in columns],
        [[cell(row) for _, cell in columns] for row in rows],
        title=title,
    )


def relative_pct(value: float, base: float) -> float:
    """Percent change of ``value`` against ``base``; ``nan`` when the
    base is zero.

    A zero base makes the change undefined: a baseline that never
    collected would otherwise print a "+0%" GC-overhead change, which
    reads as "IPA did not help".  ``nan`` renders as an explicit "n/a".
    """
    if base == 0:
        return math.nan
    return 100.0 * (value - base) / base


def fmt_pct(value: float) -> str:
    """A signed whole percentage, or "n/a" for ``nan``."""
    return "n/a" if math.isnan(value) else f"{value:+.0f}%"


def fmt_ratio(value: float) -> str:
    """A ratio with two decimals, "inf", or "n/a" for ``nan``."""
    if math.isnan(value):
        return "n/a"
    if value == float("inf"):
        return "inf"
    return f"{value:.2f}x"


def _fmt(value: float, spec: str) -> str:
    if spec == "d":
        return f"{int(value):,}".replace(",", " ")
    return format(value, spec)


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
            pct = relative_pct(value, base_value)
            row.append(_fmt(value, spec))
            row.append("-" if math.isnan(pct) else f"{pct:+.0f}")
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
