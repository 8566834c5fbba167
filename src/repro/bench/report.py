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
from operator import attrgetter
from typing import Any, Callable, Generic, Optional, Sequence, TypeVar, Union

from repro.bench.harness import (
    ExperimentConfig,
    ExperimentResult,
    ObservedResult,
    run_experiment,
)
from repro.obs.export import render_table
from repro.workloads.trace import ReplayResult

#: A Table-1 row: its name, the result path it reads and its format.
Metric = tuple[str, str, str]

#: What a row holds: a run, or (A4) a trace replay.
R = TypeVar("R", ExperimentResult, ReplayResult)

#: The rows of Table 1, in paper order.
TABLE1_METRICS: list[Metric] = [
    ("Host Reads", "device.host_reads", "d"),
    ("Host Writes", "device.total_host_write_ops", "d"),
    ("GC Page Migrations", "device.gc_page_migrations", "d"),
    ("GC Erases", "device.gc_erases", "d"),
    ("Page Migrations per Host Write", "device.migrations_per_host_write", ".4f"),
    ("GC Erases per Host Write", "device.erases_per_host_write", ".4f"),
    ("Transactional Throughput", "tps", ".1f"),
]


@dataclass
class Row(Generic[R]):
    """One labelled run of a table.

    A paired table keeps the run it compares against as ``baseline``
    (E5: the traditional stack, E6: IPL).  A traced row keeps the two
    numbers its trace gave and drops the observation, so a row pickles.
    A4's rows hold trace replays.
    """

    label: str
    result: R
    baseline: Optional[R] = None
    #: Inline ``gc_erase`` spans in the traced run.
    gc_erase_spans: int = 0
    #: Share of those spans attributed to a txn-bearing host write.
    gc_attribution_rate: float = 0.0

    def pair(self, metric: str) -> tuple[Any, Any]:
        """``metric`` of this row's run and of its baseline; a dotted
        ``metric`` (``device.page_invalidations``) reads an interval's
        counter."""
        assert self.baseline is not None, f"{self.label} has no baseline"
        get = attrgetter(metric)
        return get(self.result), get(self.baseline)


#: A row before it runs: its label and config, and for a paired table
#: the baseline's config.
Spec = Union[
    tuple[str, ExperimentConfig],
    tuple[str, ExperimentConfig, ExperimentConfig],
]

#: A column: its header and the cell it prints for a row.
Column = tuple[str, Callable[[Row[Any]], str]]


def run_rows(
    specs: Sequence[Spec], observe: bool = False
) -> list[Row[ExperimentResult]]:
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


def render_rows(
    title: str, columns: Sequence[Column], rows: Sequence[Row[Any]]
) -> str:
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
    title: str = "",
) -> str:
    """Render a Table-1-style comparison (baseline + N variants) of
    :data:`TABLE1_METRICS`."""
    headers = ["Metric", f"{baseline.config_label} (abs)"]
    for other in others:
        headers.append(f"{other.config_label} (abs)")
        headers.append("rel %")
    rows = []
    for name, path, spec in TABLE1_METRICS:
        get = attrgetter(path)
        base_value = get(baseline)
        row = [name, _fmt(base_value, spec)]
        for other in others:
            value = get(other)
            pct = relative_pct(value, base_value)
            row.append(_fmt(value, spec))
            row.append("-" if math.isnan(pct) else f"{pct:+.0f}")
        rows.append(row)
    return render_table(headers, rows, title=title)


def summarize(result: ExperimentResult) -> str:
    """One-paragraph run summary."""
    device = result.device
    return (
        f"{result.config_label} on {result.workload}: "
        f"{result.transactions} txns in {result.elapsed_s:.2f} simulated s "
        f"({result.tps:.0f} TPS); reads={device.host_reads} "
        f"writes={device.total_host_write_ops} "
        f"(deltas={device.host_delta_writes}) "
        f"invalidations={device.page_invalidations} "
        f"migrations={device.gc_page_migrations} erases={device.gc_erases}"
    )
