"""Exporters: aligned text tables, time-series CSV and Prometheus text.

All are plain-text, dependency-free formats:

* :func:`render_table` — the aligned table every report prints;
* :func:`samples_to_csv` — one row per sampler snapshot, suitable for
  pandas / gnuplot / spreadsheet post-processing;
* :func:`registry_to_prometheus` — the Prometheus text exposition
  format (``# HELP`` / ``# TYPE`` / sample lines, histograms with
  cumulative ``_bucket`` series), so a run's metrics can be diffed or
  scraped with standard tooling.
"""

from __future__ import annotations

import io
import re
from typing import Iterable, Sequence

from repro.obs.metrics import CallbackMetric, Histogram, MetricsRegistry

__all__ = [
    "samples_to_csv",
    "write_samples_csv",
    "registry_to_prometheus",
    "parse_prometheus",
]

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[str]],
    title: str = "",
) -> str:
    """Plain-text table with aligned columns."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(str(cell)))
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * max(len(title), 8))
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append(
            "  ".join(str(cell).ljust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def _prom_name(name: str, prefix: str) -> str:
    """Sanitize to a legal Prometheus metric name."""
    sanitized = _NAME_RE.sub("_", prefix + name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _fmt(value: float) -> str:
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def samples_to_csv(samples: Iterable[dict], columns: Sequence[str] | None = None) -> str:
    """Render sampler rows as CSV text (header + one line per sample).

    When ``columns`` is not given, the header is the *union* of keys
    across every sample in first-appearance order — a metric that first
    appears mid-run (e.g. a collector added after sampling started) must
    not be silently dropped just because the first row lacks it.
    """
    rows = list(samples)
    if columns is None:
        ordered: list[str] = []
        seen: set[str] = set()
        for row in rows:
            for key in row:
                if key not in seen:
                    seen.add(key)
                    ordered.append(key)
        columns = ordered
    out = io.StringIO()
    out.write(",".join(columns) + "\n")
    for row in rows:
        out.write(
            ",".join(_fmt(row.get(col, "")) for col in columns) + "\n"
        )
    return out.getvalue()


def write_samples_csv(
    path: str, samples: Iterable[dict], columns: Sequence[str] | None = None
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(samples_to_csv(samples, columns))


def _render_labels(labels: dict | None) -> str:
    """``{k="v",...}`` with keys sorted, or the empty string."""
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return "{" + inner + "}"


def registry_to_prometheus(
    registry: MetricsRegistry, prefix: str = "repro_"
) -> str:
    """Render every registered metric in Prometheus text format.

    Labeled metrics (``metric.labels``) render as proper label sets —
    ``repro_channel_busy_us{channel="2"}`` — rather than flattened
    names; ``# HELP`` / ``# TYPE`` headers are emitted once per metric
    family, however many labeled members it has.
    """
    out = io.StringIO()
    headered: set[str] = set()
    for metric in registry.collect():
        name = _prom_name(metric.name, prefix)
        labels = metric.labels
        label_str = _render_labels(labels)
        if isinstance(metric, Histogram):
            if name not in headered:
                headered.add(name)
                if metric.help:
                    out.write(f"# HELP {name} {metric.help}\n")
                out.write(f"# TYPE {name} histogram\n")
            bucket_prefix = (
                ",".join(
                    f'{k}="{v}"' for k, v in sorted(labels.items())
                ) + ","
                if labels
                else ""
            )
            cumulative = 0
            for bound, count in zip(metric.bounds, metric.bucket_counts):
                cumulative += count
                out.write(
                    f'{name}_bucket{{{bucket_prefix}le="{_fmt(bound)}"}} '
                    f"{cumulative}\n"
                )
            cumulative += metric.bucket_counts[-1]
            out.write(
                f'{name}_bucket{{{bucket_prefix}le="+Inf"}} {cumulative}\n'
            )
            out.write(f"{name}_sum{label_str} {_fmt(metric.sum)}\n")
            out.write(f"{name}_count{label_str} {metric.count}\n")
        elif isinstance(metric, CallbackMetric):
            if name not in headered:
                headered.add(name)
                if metric.help:
                    out.write(f"# HELP {name} {metric.help}\n")
                out.write(f"# TYPE {name} {metric.kind}\n")
            out.write(f"{name}{label_str} {_fmt(metric.value)}\n")
    return out.getvalue()


def parse_prometheus(text: str) -> dict[str, float]:
    """Minimal parser for the text format (round-trip tests / tooling).

    Returns sample name (including any ``{labels}``) -> value; comment
    and blank lines are skipped.  Raises ValueError on malformed lines
    and on a repeated sample name (Prometheus rejects both), which is
    what "the export parses cleanly" means in the tests.
    """
    out: dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        # Sample line: <name>[{labels}] <value>
        idx = line.rfind(" ")
        if idx <= 0:
            raise ValueError(f"malformed sample on line {lineno}: {line!r}")
        name, value = line[:idx], line[idx + 1 :]
        base = name.split("{", 1)[0]
        if not base or _NAME_RE.search(base):
            raise ValueError(f"illegal metric name on line {lineno}: {name!r}")
        if name in out:
            raise ValueError(f"repeated sample on line {lineno}: {name!r}")
        out[name] = float(value)
    return out
