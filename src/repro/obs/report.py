"""The ``python -m repro obs`` post-run observability report.

Renders a run artefact (:meth:`repro.obs.Observation.artefact`: plain
data, live from a run of :mod:`repro.bench.observe` or loaded from its
``run.json`` by :func:`load_artefact`) — what the rest of the harness
only summarizes:

* span counts per name — did every instrumented layer fire;
* GC-stall attribution — which *transactions* paid for inline erases,
  with the host write and buffer eviction in between;
* the transaction-latency histogram;
* a condensed time series (GC pressure and append share over the run);
* the write-amplification waterfall (per-cause program/erase/byte
  attribution with its conservation status), the block-wear histogram
  and the per-cause LBA death-time distribution.
"""

from __future__ import annotations

import json

from repro.obs import ARTEFACT_VERSION
from repro.obs.export import render_table
from repro.obs.ledger import erase_count_histogram
from repro.obs.metrics import Histogram
from repro.obs.trace import attribute_gc_erases, gc_attribution_rate

__all__ = ["load_artefact", "write_artefact", "render_report"]


def write_artefact(path: str, artefact: dict) -> None:
    """Save a run artefact as JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(artefact, fh)


def load_artefact(path: str) -> dict:
    """Read a run artefact back; refuse a schema version it cannot read."""
    with open(path, encoding="utf-8") as fh:
        artefact = json.load(fh)
    version = artefact.get("version")
    if version != ARTEFACT_VERSION:
        raise ValueError(
            f"{path}: run artefact version {version!r}, this reader "
            f"reads version {ARTEFACT_VERSION}"
        )
    return artefact


def span_count_table(spans: list[dict]) -> str:
    counts: dict[str, int] = {}
    total_us: dict[str, float] = {}
    for span in spans:
        name = span["name"]
        counts[name] = counts.get(name, 0) + 1
        total_us[name] = total_us.get(name, 0.0) + span["dur_us"]
    rows = [
        [name, str(counts[name]), f"{total_us[name]:,.0f}"]
        for name in sorted(counts, key=lambda n: -total_us[n])
    ]
    return render_table(
        ["Span", "Count", "Total sim us"], rows, title="Span inventory"
    )


def gc_stall_table(spans: list[dict], top: int = 10) -> str:
    attributed = attribute_gc_erases(spans)
    if not attributed:
        return "No gc_erase spans: the run never triggered garbage collection.\n"
    attributed.sort(key=lambda a: -a["stall_us"])
    rows = []
    for a in attributed[:top]:
        host_write = a["host_write"] or {}
        attrs = a["span"].get("attrs", {})
        rows.append(
            [
                str(a["txn"]) if a["txn"] is not None else "-",
                str(host_write.get("attrs", {}).get("lba", "-")),
                str(attrs.get("victim", "-")),
                str(attrs.get("migrated", "-")),
                f"{a['stall_us']:,.0f}",
            ]
        )
    n_attr = sum(
        1 for a in attributed if a["host_write"] is not None and a["txn"] is not None
    )
    table = render_table(
        ["Txn", "Host LBA", "Victim blk", "Migrated", "Stall (us)"],
        rows,
        title=(
            f"GC-stall attribution — {len(attributed)} inline erases, "
            f"{n_attr} attributed to a transaction's host write"
        ),
    )
    return table


def latency_table(histogram: Histogram) -> str:
    rows = []
    cumulative = 0
    for bound, count in zip(histogram.bounds, histogram.bucket_counts):
        cumulative += count
        rows.append([f"<= {bound:,}", str(count), str(cumulative)])
    rows.append(
        [
            f"> {histogram.bounds[-1]:,}",
            str(histogram.bucket_counts[-1]),
            str(histogram.count),
        ]
    )
    title = (
        f"Transaction latency (simulated us) — n={histogram.count}, "
        f"p50~{histogram.quantile(0.5):,.0f}, p99~{histogram.quantile(0.99):,.0f}"
    )
    return render_table(["Bucket (us)", "Count", "Cumulative"], rows, title=title)


def timeseries_table(samples: list[dict], max_rows: int = 12) -> str:
    if not samples:
        return "No samples taken.\n"
    stride = max(len(samples) // max_rows, 1)
    shown = samples[::stride]
    if samples[-1] is not shown[-1]:
        shown.append(samples[-1])
    rows = [
        [
            f"{row['t_s']:.3f}",
            f"{row.get('txns_per_s', row.get('host_writes_per_s', 0.0)):,.0f}",
            f"{row.get('host_writes', 0):,.0f}",
            f"{row.get('in_place_appends', 0):,.0f}",
            f"{row.get('gc_erases', 0):,.0f}",
            f"{row.get('gc_migrations', 0):,.0f}",
            f"{row.get('free_blocks', 0):,.0f}",
            f"{row.get('write_amp', 0.0):.2f}",
        ]
        for row in shown
    ]
    return render_table(
        ["t (sim s)", "TPS", "Host wr", "IPA", "GC erase", "GC migr",
         "Free blk", "W-amp"],
        rows,
        title=f"Time series ({len(samples)} samples, every {stride}th shown)",
    )


def wa_waterfall_table(ledger: dict) -> str:
    """Write-amplification waterfall: who programmed what, per cause."""
    causes = ledger["causes"]
    total_bytes = max(sum(d["bytes"] for d in causes.values()), 1)
    rows = []
    for cause, d in causes.items():
        if not any(d.values()):
            continue
        rows.append(
            [
                cause,
                str(d["programs"]),
                str(d["reprograms"]),
                str(d["partial_programs"]),
                str(d["erases"]),
                f"{d['bytes']:,}",
                f"{d['bytes'] / total_bytes:.1%}",
            ]
        )
    if not rows:
        return "No attributed writes (ledger never charged).\n"
    errors = ledger["conservation_errors"]
    status = "conserved" if not errors else "; ".join(errors)
    return render_table(
        ["Cause", "Programs", "Reprograms", "Partials", "Erases",
         "Bytes", "Bytes %"],
        rows,
        title=f"Write-amplification waterfall — {status}",
    )


def wear_table(counts: list[int], ledger: dict) -> str:
    """Erase-count distribution plus per-cause erase attribution."""
    hist = erase_count_histogram(counts)
    rows = []
    cumulative = 0
    for bound, count in zip(hist.bounds, hist.bucket_counts):
        cumulative += count
        rows.append([f"<= {bound:,.0f}", str(count), str(cumulative)])
    rows.append(
        [f"> {hist.bounds[-1]:,.0f}", str(hist.bucket_counts[-1]),
         str(hist.count)]
    )
    by_cause = ", ".join(
        f"{cause}={d['erases']}"
        for cause, d in ledger["causes"].items()
        if d["erases"]
    )
    title = (
        f"Block wear — {len(counts)} blocks, erase count "
        f"min={min(counts)} mean={sum(counts) / len(counts):.1f} "
        f"max={max(counts)}"
        + (f"; erases by cause: {by_cause}" if by_cause else "")
    )
    return render_table(["Erase count", "Blocks", "Cumulative"], rows,
                        title=title)


def death_time_table(lifetimes: dict, aggregate: Histogram) -> str:
    """Per-cause LBA lifetime (birth on host write, death on rewrite/trim)."""
    by_cause = {
        cause: Histogram.from_dict(data)
        for cause, data in lifetimes["by_cause"].items()
    }
    rows = []
    for cause, hist in by_cause.items():
        if not hist.count:
            continue
        rows.append(
            [
                cause,
                str(hist.count),
                f"{hist.quantile(0.5):,.0f}",
                f"{hist.quantile(0.99):,.0f}",
                f"{hist.mean:,.0f}",
            ]
        )
    if not rows:
        return "No page deaths observed (no LBA was rewritten or trimmed).\n"
    title = (
        f"LBA death times (simulated us) — "
        f"{sum(h.count for h in by_cause.values())} deaths, "
        f"{lifetimes['live_pages']} pages still live, "
        f"aggregate p50~{aggregate.quantile(0.5):,.0f}"
    )
    return render_table(
        ["Born by", "Deaths", "p50 (us)", "p99 (us)", "Mean (us)"],
        rows, title=title,
    )


def render_report(artefact: dict) -> str:
    result = artefact["result"]
    spans = artefact["spans"]
    histograms = artefact["histograms"]
    header = (
        f"Observed run: {result['config_label']} / {result['workload']} — "
        f"{result['transactions']} txns, {result['tps']:,.0f} TPS, "
        f"attribution rate {gc_attribution_rate(spans):.0%}\n"
    )
    dropped = artefact["spans_dropped"]
    if dropped:
        header += (
            f"WARNING: the span ring buffer dropped the {dropped:,} oldest "
            "spans; span counts and GC attribution cover only the rest\n"
        )
    return "\n".join([
        header,
        span_count_table(spans),
        "",
        gc_stall_table(spans),
        "",
        latency_table(Histogram.from_dict(histograms["txn_latency_us"])),
        "",
        timeseries_table(artefact["samples"]),
        "",
        wa_waterfall_table(artefact["ledger"]),
        "",
        wear_table(artefact["erase_counts"], artefact["ledger"]),
        "",
        death_time_table(
            artefact["lifetimes"],
            Histogram.from_dict(histograms["lba_lifetime_us"]),
        ),
    ])
