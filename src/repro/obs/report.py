"""The ``python -m repro obs`` post-run observability report.

Renders an observed run (:mod:`repro.bench.observe` runs the experiment)
— what the rest of the harness only summarizes:

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

from repro.obs.export import render_table
from repro.obs.trace import attribute_gc_erases


def span_count_table(spans) -> str:
    counts: dict[str, int] = {}
    total_us: dict[str, float] = {}
    for span in spans:
        counts[span.name] = counts.get(span.name, 0) + 1
        total_us[span.name] = total_us.get(span.name, 0.0) + span.duration_us
    rows = [
        [name, str(counts[name]), f"{total_us[name]:,.0f}"]
        for name in sorted(counts, key=lambda n: -total_us[n])
    ]
    return render_table(
        ["Span", "Count", "Total sim us"], rows, title="Span inventory"
    )


def gc_stall_table(spans, top: int = 10) -> str:
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


def latency_table(histogram) -> str:
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


def timeseries_table(samples, max_rows: int = 12) -> str:
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


def wa_waterfall_table(ledger) -> str:
    """Write-amplification waterfall: who programmed what, per cause."""
    total_bytes = max(ledger.totals()["bytes"], 1)
    rows = []
    for record in ledger.records():
        d = record.as_dict()
        if not any(d.values()):
            continue
        rows.append(
            [
                record.cause,
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
    errors = ledger.conservation_errors()
    status = "conserved" if not errors else "; ".join(errors)
    return render_table(
        ["Cause", "Programs", "Reprograms", "Partials", "Erases",
         "Bytes", "Bytes %"],
        rows,
        title=f"Write-amplification waterfall — {status}",
    )


def wear_table(obs) -> str:
    """Erase-count distribution plus per-cause erase attribution."""
    from repro.obs.ledger import erase_count_histogram

    if obs.chip is None:
        return "No chip attached; wear unknown.\n"
    counts = [b.erase_count for b in obs.chip.blocks]
    hist = erase_count_histogram(obs.chip.blocks)
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
        f"{r.cause}={r.erases}" for r in obs.ledger.records() if r.erases
    )
    title = (
        f"Block wear — {len(counts)} blocks, erase count "
        f"min={min(counts)} mean={sum(counts) / len(counts):.1f} "
        f"max={max(counts)}"
        + (f"; erases by cause: {by_cause}" if by_cause else "")
    )
    return render_table(["Erase count", "Blocks", "Cumulative"], rows,
                        title=title)


def death_time_table(lifetimes, aggregate) -> str:
    """Per-cause LBA lifetime (birth on host write, death on rewrite/trim)."""
    rows = []
    for cause, hist in lifetimes.by_cause.items():
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
        f"LBA death times (simulated us) — {lifetimes.deaths} deaths, "
        f"{lifetimes.live_pages} pages still live, "
        f"aggregate p50~{aggregate.quantile(0.5):,.0f}"
    )
    return render_table(
        ["Born by", "Deaths", "p50 (us)", "p99 (us)", "Mean (us)"],
        rows, title=title,
    )


def render_report(result) -> str:
    obs = result.observation
    spans = obs.spans()
    parts = [
        f"Observed run: {result.config_label} / {result.workload} — "
        f"{result.transactions} txns, {result.tps:,.0f} TPS, "
        f"attribution rate {obs.gc_attribution_rate():.0%}\n",
        span_count_table(spans),
        "",
        gc_stall_table(spans),
        "",
        latency_table(obs.txn_latency),
        "",
        timeseries_table(obs.samples),
    ]
    if obs.ledger.enabled:
        aggregate = obs.registry.get("lba_lifetime_us")
        parts += [
            "",
            wa_waterfall_table(obs.ledger),
            "",
            wear_table(obs),
            "",
            death_time_table(obs.lifetimes, aggregate),
        ]
    return "\n".join(parts)

