"""The region advisor: which tables deserve IPA, and at what N x M.

The paper applies IPA "selectively, only to certain database objects
that are dominated by small-sized updates" (Section 3) — but leaves the
*selection* to the DBA.  This module automates it: the storage manager
records the changed-byte size of every update operation per file, and
the advisor turns those distributions into per-table recommendations:

* **M** — sized to the 95th-percentile operation (capped at the wire
  format's maximum of 15), so conformance covers the bulk of updates;
* **N** — 2 by default (the paper's sweet spot), 4 for tables whose
  pages absorb many operations between evictions;
* **no IPA** — for tables with no observed updates (insert-only, e.g.
  TPC-B history) or updates too large for any delta-record.

Typical use: run a representative workload sample against any stack,
then feed the database to :func:`advise`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import MAX_M, IpaScheme
from repro.engine.database import Database
from repro.obs.export import render_table

#: Minimum observed operations before a recommendation is made.
MIN_SAMPLE = 20


@dataclass
class TableAdvice:
    """One table's profile and recommendation."""

    table: str
    update_ops: int
    median_bytes: float
    p95_bytes: float
    scheme: IpaScheme | None  # None => leave IPA off for this table
    reason: str


def advise_table(
    name: str,
    op_sizes: list,
    dirty_ops_per_eviction: float = 1.0,
) -> TableAdvice:
    """Recommendation from one table's op-size sample."""
    if len(op_sizes) < MIN_SAMPLE:
        return TableAdvice(
            table=name,
            update_ops=len(op_sizes),
            median_bytes=0.0,
            p95_bytes=0.0,
            scheme=None,
            reason=(
                "insufficient update sample"
                if op_sizes
                else "no updates observed (insert/read-only)"
            ),
        )
    data = np.asarray(op_sizes, dtype=np.int64)
    median = float(np.median(data))
    p90 = float(np.percentile(data, 95))
    if p90 > MAX_M:
        return TableAdvice(
            table=name,
            update_ops=len(op_sizes),
            median_bytes=median,
            p95_bytes=p90,
            scheme=None,
            reason=(
                f"p95 update of {p90:.0f} B exceeds the delta-record "
                f"maximum (M <= {MAX_M}); whole-page writes are cheaper"
            ),
        )
    m = max(int(np.ceil(p90)), 4)
    n = 4 if dirty_ops_per_eviction > 2.0 else 2
    return TableAdvice(
        table=name,
        update_ops=len(op_sizes),
        median_bytes=median,
        p95_bytes=p90,
        scheme=IpaScheme(n, m),
        reason=f"p95 update {p90:.0f} B fits M={m}; N={n} covers residencies",
    )


def advise(db: Database) -> list[TableAdvice]:
    """Profile every table of a database from its manager's statistics."""
    per_file = db.manager.stats.per_file_op_sizes
    out = []
    for table in db.tables.values():
        sizes = per_file.get(table.heap.file_id, [])
        # Approximate ops-per-eviction from pool stats if available.
        pool = db.manager.pool.stats
        dirty = max(pool.dirty_evictions, 1)
        density = len(sizes) / dirty
        out.append(advise_table(table.name, sizes, density))
    return out


def render_advice(advice: list[TableAdvice]) -> str:
    """Human-readable advisory report."""
    return render_table(
        ["Table", "Update ops", "median B", "p95 B", "Recommendation", "Why"],
        [
            [
                a.table,
                str(a.update_ops),
                f"{a.median_bytes:.0f}",
                f"{a.p95_bytes:.0f}",
                str(a.scheme) if a.scheme else "IPA off",
                a.reason,
            ]
            for a in advice
        ],
        title="Region advisor — per-table IPA recommendations",
    )
