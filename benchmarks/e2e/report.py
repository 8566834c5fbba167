"""Printing a run, and comparing two saved runs (``--compare``)."""

from __future__ import annotations

import statistics
from collections import Counter
from typing import List, Sequence, Tuple

from benchmarks.e2e.spec import HOST_METRICS

#: Reported in every full run beside the contract's end-to-end metrics
#: (``BENCHMARK.json`` cannot list it: its value at HEAD is 0).
FAILED_SHARE = {
    "name": "failed_share", "unit": "ratio", "better": "lower", "bound": 0.0,
}


def is_timing(name: str) -> bool:
    """Per-layer metrics measured with a host clock (do not repeat exactly)."""
    return (
        name.startswith("bench.")
        or name.endswith(".self_share")
        or "_us" in name
        or ".us_" in name
    )


def _cell(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.4g}" if abs(value) < 1e4 else f"{value:.1f}"


def _table(header: Sequence[str], rows: List[Sequence[str]]) -> str:
    widths = [max(len(row[i]) for row in [header, *rows]) for i in range(len(header))]
    lines = [
        "  ".join(
            cell.ljust(width) if i == 0 else cell.rjust(width)
            for i, (cell, width) in enumerate(zip(row, widths))
        ).rstrip()
        for row in [header, *rows]
    ]
    return "\n".join(lines)


def format_run(document: dict, contract: dict) -> str:
    """Every metric by name, with its unit, one column per workload."""
    workloads = list(document["workloads"])
    meta = document["meta"]
    sections = (
        ("end_to_end", [*contract["end_to_end"], FAILED_SHARE]),
        ("per_layer", contract["per_layer"]),
    )
    out = [
        f"seed {meta['seed']}, scale {meta['scale']}, {meta['reps']} plain "
        f"repetitions per workload (host metrics are medians over them)"
    ]
    for section, specs in sections:
        rows = [
            [
                spec["name"],
                spec["unit"],
                *(
                    _cell(document["workloads"][w][section][spec["name"]])
                    for w in workloads
                ),
            ]
            for spec in specs
        ]
        out += ["", f"== {section} ==", _table(["metric", "unit", *workloads], rows)]
    for name in workloads:
        summary = document["workloads"][name]
        verdict = "ok" if not summary["errors"] else "; ".join(summary["errors"])
        out.append(
            f"output check {name}: {summary['failed']} failed of "
            f"{summary['attempted']} attempted ({verdict})"
        )
    return "\n".join(out)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _spread(values: Sequence[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def _worse_by(base: float, other: float, better: str) -> float:
    """How much worse ``other`` is than ``base``, as a share of ``base``."""
    delta = (other - base) / abs(base)
    return -delta if better == "higher" else delta


def host_verdict(
    base: Sequence[float], other: Sequence[float], better: str, bound: float
) -> str:
    """same / worse / better, or unresolved when the reps spread too far."""
    if max(_spread(base), _spread(other)) > bound:
        return "unresolved"
    worse_by = _worse_by(quartiles(base)[1], quartiles(other)[1], better)
    if worse_by > bound:
        return "worse"
    return "better" if worse_by < -bound else "same"


def exact_verdict(base: float, other: float, better: str) -> str:
    if base == other:
        return "same"
    got_worse = other < base if better == "higher" else other > base
    return "worse" if got_worse else "better"


def _share(base: float, other: float) -> str:
    if base == 0:
        return "n/a (A is 0)"
    return f"{(other - base) / abs(base):+.2%} of A"


def compare(a: dict, b: dict, contract: dict) -> Tuple[str, Counter]:
    """Compare two saved runs; returns (report, how often each verdict fell).

    Host metrics are judged by their ``BENCHMARK.json`` bound against
    the medians and quartiles over repetitions.  Simulated metrics,
    ``failed_share``, every count and every ``pycalls_per_op`` must be
    *exactly* equal: the saved runs share seed and op count, so any
    difference is a change of simulated outcome, never noise.
    """
    workloads = [w for w in a["workloads"] if w in b["workloads"]]
    out: List[str] = []
    verdicts: Counter = Counter()
    for key in ("seed", "scale"):
        if a["meta"][key] != b["meta"][key]:
            out.append(
                f"WARNING: {key} differs (A {a['meta'][key]}, B {b['meta'][key]}): "
                f"exact metrics cannot agree"
            )
    for spec in [*contract["end_to_end"], FAILED_SHARE]:
        name, better = spec["name"], spec["better"]
        host = name in HOST_METRICS
        rule = f"bound {spec['bound']:.0%} of A" if host else "exact"
        out += ["", f"{name} [{spec['unit']}, {better} is better, {rule}]"]
        rows = []
        for w in workloads:
            wa, wb = a["workloads"][w], b["workloads"][w]
            if host:
                va, vb = wa["reps"][name], wb["reps"][name]
                qa, qb = quartiles(va), quartiles(vb)
                verdict = host_verdict(va, vb, better, spec["bound"])
                cells = [
                    f"{_cell(qa[1])} [{_cell(qa[0])} .. {_cell(qa[2])}] n={len(va)}",
                    f"{_cell(qb[1])} [{_cell(qb[0])} .. {_cell(qb[2])}] n={len(vb)}",
                    _share(qa[1], qb[1]),
                ]
            else:
                va, vb = wa["end_to_end"][name], wb["end_to_end"][name]
                verdict = exact_verdict(va, vb, better)
                cells = [_cell(va), _cell(vb), _share(va, vb)]
            verdicts[verdict] += 1
            rows.append([w, *cells, verdict])
        header = ["workload", "A median [q1 .. q3]", "B median [q1 .. q3]", "delta", "verdict"]
        out.append(_table(header, rows))

    out += ["", "per-layer counts and pycalls_per_op [exact]"]
    compared = 0
    rows = []
    for w in workloads:
        la, lb = a["workloads"][w]["per_layer"], b["workloads"][w]["per_layer"]
        for spec in contract["per_layer"]:
            name = spec["name"]
            if is_timing(name) or name not in la or name not in lb:
                continue
            compared += 1
            verdict = exact_verdict(la[name], lb[name], spec["better"])
            verdicts[verdict] += 1
            if verdict != "same":
                rows.append(
                    [
                        w, name, _cell(la[name]), _cell(lb[name]),
                        _share(la[name], lb[name]), verdict,
                    ]
                )
    out.append(f"{compared} values compared, {len(rows)} differ")
    if rows:
        out.append(_table(["workload", "metric", "A", "B", "delta", "verdict"], rows))
    return "\n".join(out), verdicts
