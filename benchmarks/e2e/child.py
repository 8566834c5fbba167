"""One repetition in a fresh process: build, measure, check, one JSON line.

Run by :mod:`benchmarks.e2e.measure`, never two at a time.  Modes:

* ``plain`` — nothing attached; the host numbers come from here;
* ``sampled`` — ``SIGPROF`` sampler only: the per-layer self shares;
* ``spanned`` — timing wrappers at the layer boundaries: inclusive
  time and call counts per boundary, and the tracing overhead.  The two
  are separate because three wrappers around a 20 us device op are 12 %
  of its CPU time, which the sampler would charge to the benchmark;
* ``counted`` — ``sys.setprofile`` call counter over the first
  :data:`~benchmarks.e2e.spec.COUNTED_OPS` ops; no output check.

Every metric that needs only this process is computed here, next to
where it is collected; the parent takes medians and compares runs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
from time import perf_counter, process_time
from typing import Dict, List, Optional

from benchmarks.e2e.layers import CallCounter, CpuSampler
from benchmarks.e2e.spec import WORKLOADS
from benchmarks.e2e.speed import SpeedProbe, reference_seconds
from benchmarks.e2e.workloads import (
    RAW_COUNTS,
    RUNS,
    HeadroomError,
    Spans,
    WorkloadRun,
    mid_and_tail_mean,
    percentile,
)

MODES = ("plain", "sampled", "spanned", "counted")

#: Raw counts that are not reported under their own name.
_DERIVED_ONLY = (
    "storage.fetches", "storage.hits", "ftl.host_bytes_written",
    "flash.busy_us", "sim.elapsed_us",
)


def sim_metrics(run: WorkloadRun, raw: Dict[str, float]) -> Dict[str, float]:
    """The simulated end-to-end metrics (exact for a seed and op count)."""
    user_bytes = raw[run.user_bytes_key]
    mid80, top1 = mid_and_tail_mean(run.sim_lat_us)
    return {
        "sim_ops_per_s": run.sim_ops_per_s(raw),
        "sim_op_us_mid80": mid80,
        "sim_op_us_top1": top1,
        "sim_flash_bytes_per_user_byte": (
            raw["flash.bytes_programmed"] / user_bytes if user_bytes else 0.0
        ),
        "sim_erases_per_kop": raw["flash.block_erases"] * 1000 / run.limit,
    }


def layer_counts(run: WorkloadRun, raw: Dict[str, float]) -> Dict[str, float]:
    """Per-layer counts and ratios read from the public stats objects."""
    out = {name: raw[name] for name in RAW_COUNTS if name not in _DERIVED_ONLY}
    service = run.service_counts()
    fetches = raw["storage.fetches"]
    host_writes = raw["ftl.host_page_writes"] + raw["ftl.host_delta_writes"]
    batches = service["service.batches"]
    out.update(service)
    out.update(
        {
            "engine.wal_fill_share": max(
                probe.wal_fill_share() for probe in run.probes()
            ),
            "storage.fetches_per_op": fetches / run.limit,
            "storage.hit_rate": raw["storage.hits"] / fetches if fetches else 0.0,
            "ftl.migrations_per_host_write": (
                raw["ftl.gc_page_migrations"] / host_writes if host_writes else 0.0
            ),
            "flash.sim_busy_share": raw["flash.busy_us"] / raw["sim.elapsed_us"],
            "service.mean_batch_size": run.limit / batches if batches else 0.0,
        }
    )
    return out


def span_metrics(
    run: WorkloadRun, spans: Spans, wall_s: float, speed: float
) -> Dict[str, float]:
    """Per-layer inclusive host time and calls seen at the boundaries.

    Times are scaled by ``speed`` (reference seconds per wall second of
    this repetition) like every other host time the benchmark reports.
    """
    per_op_us = 1e6 * speed / run.limit
    flash_calls = spans.flash_data.calls + spans.flash_wal.calls
    flash_s = spans.flash_data.total_s + spans.flash_wal.total_s
    batch = spans.batch
    return {
        "engine.wal_incl_us_per_op": spans.wal.total_s * per_op_us,
        "storage.flush_incl_us_per_op": spans.flush.total_s * per_op_us,
        "ftl.calls_per_op": spans.ftl.calls / run.limit,
        "ftl.incl_us_per_op": spans.ftl.total_s * per_op_us,
        "ftl.self_us_per_op": (
            (spans.ftl.total_s - spans.flash_data.total_s) * per_op_us
        ),
        "flash.calls_per_op": flash_calls / run.limit,
        "flash.incl_us_per_op": flash_s * per_op_us,
        "flash.us_per_call": (
            flash_s * 1e6 * speed / flash_calls if flash_calls else 0.0
        ),
        "service.batch_incl_us": (
            batch.total_s * 1e6 * speed / batch.calls if batch.calls else 0.0
        ),
        "service.sched_us_per_op": (
            (wall_s - batch.total_s) * per_op_us if batch.calls else 0.0
        ),
        "service.admission_waits": spans.admission_waits,
    }


def run_child(workload: str, seed: int, ops: int, mode: str) -> dict:
    """Run one repetition and return its result record."""
    run = RUNS[workload](seed, ops, counted=mode == "counted")
    spans = Spans()
    sampler = CpuSampler()
    counter = CallCounter()
    probe = SpeedProbe()
    with contextlib.ExitStack() as attached:
        if mode in ("plain", "spanned"):
            # Not beside the sampler or the call counter: its kernel
            # would show up in their numbers, and they report no times.
            attached.enter_context(probe)
        start = perf_counter()
        run.setup()
        setup_wall_s = perf_counter() - start
        setup_probes = len(probe.samples)

        if mode == "spanned":
            run.instrument(spans)
        elif mode == "sampled":
            attached.enter_context(sampler)
        elif mode == "counted":
            attached.enter_context(counter)
        cpu_start = process_time()
        start = perf_counter()
        run.execute()
        measured_wall_s = perf_counter() - start
        cpu_s = process_time() - cpu_start
    # Before the output check, so the checker's own scans do not count.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    measured_probes = probe.samples[setup_probes:]
    measured_s = reference_seconds(measured_wall_s, measured_probes)

    raw = run.raw_counts()
    host_lat_s: List[float] = run.host_lat_s or spans.batch_op_s
    record = {
        "workload": workload,
        "seed": seed,
        "ops": ops,
        "mode": mode,
        "executed": run.limit,
        "host": {
            # Reference seconds (see speed.py); *_wall_s are as clocked.
            "setup_s": reference_seconds(
                setup_wall_s, probe.samples[:setup_probes]
            ),
            "measured_s": measured_s,
            "setup_wall_s": setup_wall_s,
            "measured_wall_s": measured_wall_s - sum(measured_probes),
            "cpu_s": cpu_s - sum(measured_probes),
            "peak_rss_mb": peak_rss_mb,
            "op_us_p50": percentile(host_lat_s, 0.50) * 1e6,
            "op_us_p99": percentile(host_lat_s, 0.99) * 1e6,
        },
        "sim": sim_metrics(run, raw),
        "layers": layer_counts(run, raw),
        "prefix": run.prefix,
        "digests": run.digests,
        "failed": 0,
        "errors": [],
    }
    if mode == "sampled":
        record["trace"] = {
            f"{layer}.self_share": share
            for layer, share in sampler.shares().items()
        }
        record["samples"] = sum(sampler.samples.values())
    if mode == "spanned":
        record["trace"] = span_metrics(
            run, spans, measured_wall_s, measured_s / record["host"]["measured_wall_s"]
        )
    if mode == "counted":
        record["pycalls"] = counter.calls
    else:
        record["failed"], record["errors"] = run.verify(traced=mode == "spanned")
    return record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=MODES)
    args = parser.parse_args(argv)
    try:
        record = run_child(args.workload, args.seed, args.ops, args.mode)
    except HeadroomError as refused:
        print(f"refusing to start {args.workload}: {refused}", file=sys.stderr)
        return 2
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
