"""Run repetitions as fresh child processes and reduce them to metrics.

One driver process, one thread: children never overlap, so on the
2-core reference box a repetition competes with nothing the benchmark
started.  Plain repetitions go round-robin over the workloads so that a
slow phase of a shared machine is spread over all of them; host metrics
are medians over those repetitions.

This module and everything it imports stay free of numpy and ``repro``:
a child's ``ru_maxrss`` starts at its parent's resident size (the
kernel carries the old address space's high-water mark across ``exec``),
so a 60 MB parent would put a floor under every ``peak_rss_mb``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from statistics import median
from typing import Callable, Dict, Iterable, List, Optional

from benchmarks.e2e.spec import LAYERS, ROOT, ops_for

#: A child builds, measures ~NOMINAL_SECONDS and checks; far above that
#: it is hung, and the whole run must end inside the driver's 180 s.
CHILD_TIMEOUT_S = 150

#: Layers whose Python call count per op is reported: the program's.
_PYCALL_LAYERS = tuple(layer for layer in LAYERS if layer not in ("obs", "bench"))


class BenchmarkError(RuntimeError):
    """A repetition failed, or repetitions that must agree do not."""


@dataclass
class Repetitions:
    """Every child record of one workload in one run."""

    workload: str
    seed: int
    ops: int
    plain: List[dict] = field(default_factory=list)
    sampled: Optional[dict] = None
    spanned: Optional[dict] = None
    counted: List[dict] = field(default_factory=list)

    def full_runs(self) -> List[dict]:
        """Records that ran the whole measured phase."""
        extra = [r for r in (self.sampled, self.spanned) if r is not None]
        return self.plain + extra


def spawn_child(workload: str, seed: int, ops: int, mode: str) -> dict:
    """Run one repetition in a fresh interpreter; return its record."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    command = [
        sys.executable, "-m", "benchmarks.e2e.child",
        "--workload", workload, "--seed", str(seed),
        "--ops", str(ops), "--mode", mode,
    ]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        # run() has already killed the child and waited for it.
        raise BenchmarkError(
            f"{workload} {mode} repetition exceeded {CHILD_TIMEOUT_S} s"
        ) from None
    if done.returncode != 0:
        raise BenchmarkError(
            f"{workload} {mode} repetition exited with {done.returncode}"
        )
    return json.loads(done.stdout.splitlines()[-1])


def measure(
    workloads: Iterable[str],
    seed: int,
    scale: float,
    reps: int,
    trace: bool,
    log: Callable[[str], None] = lambda _line: None,
) -> Dict[str, Repetitions]:
    """Run ``reps`` plain repetitions per workload, plus the traced set."""
    runs = {
        name: Repetitions(name, seed, ops_for(name, scale)) for name in workloads
    }
    for rep in range(reps):
        for run in runs.values():
            record = spawn_child(run.workload, seed, run.ops, "plain")
            run.plain.append(record)
            log(
                f"{run.workload} rep {rep + 1}/{reps}: "
                f"{record['executed'] / record['host']['measured_s']:.0f} ops/s, "
                f"set-up {record['host']['setup_s']:.2f} s"
            )
    if trace:
        for run in runs.values():
            run.sampled = spawn_child(run.workload, seed, run.ops, "sampled")
            run.spanned = spawn_child(run.workload, seed, run.ops, "spanned")
            run.counted = [
                spawn_child(run.workload, seed, run.ops, "counted")
                for _ in range(2)
            ]
            log(f"{run.workload}: sampled, spanned and 2 counted passes done")
    return runs


def _require_identical(records: List[dict], keys: Iterable[str], what: str) -> None:
    for key in keys:
        first = records[0][key]
        for other in records[1:]:
            if other[key] != first:
                raise BenchmarkError(
                    f"{what}: '{key}' differs between the {records[0]['mode']} "
                    f"and {other['mode']} repetitions: {first} != {other[key]}"
                )


def check_agreement(run: Repetitions) -> None:
    """Simulated values and counts must repeat exactly, or the run fails.

    Every full repetition (plain, sampled, spanned) must give the same
    simulated metrics, layer counts, prefix state and media digests; the
    two counted passes the same call counts; and the counted prefix must
    match the full runs' state after the same ops.
    """
    full = run.full_runs()
    _require_identical(
        full, ("sim", "layers", "prefix", "digests"), run.workload
    )
    if run.counted:
        _require_identical(
            run.counted, ("pycalls", "sim", "layers", "prefix"), run.workload
        )
        if full[0]["prefix"] is not None:
            _require_identical(
                [full[0], run.counted[0]], ("prefix",), run.workload
            )


def summarise(run: Repetitions) -> dict:
    """Reduce one workload's repetitions to named metrics.

    Returns ``end_to_end`` (all nine), ``per_layer`` (empty without the
    traced set), the per-repetition host values in ``reps``, and the
    output-check outcome.
    """
    check_agreement(run)
    plain = run.plain
    first = plain[0]
    reps = {
        "host_ops_per_s": [r["executed"] / r["host"]["measured_s"] for r in plain],
        "setup_s": [r["host"]["setup_s"] for r in plain],
        "peak_rss_mb": [r["host"]["peak_rss_mb"] for r in plain],
    }
    checked = run.full_runs()
    attempted = sum(r["executed"] for r in checked)
    failed = sum(min(r["failed"], r["executed"]) for r in checked)
    errors = [
        f"{r['mode']}: {message}" for r in checked for message in r["errors"]
    ]
    end_to_end = {name: median(values) for name, values in reps.items()}
    end_to_end.update(first["sim"])
    end_to_end["failed_share"] = failed / attempted

    per_layer: Dict[str, float] = {}
    if run.sampled is not None and run.spanned is not None:
        counted = run.counted[0]
        untraced_s = median(r["host"]["measured_s"] for r in plain)
        rates = reps["host_ops_per_s"]
        op_source = plain if first["host"]["op_us_p50"] else [run.spanned]
        per_layer.update(first["layers"])
        per_layer.update(run.sampled["trace"])
        per_layer.update(run.spanned["trace"])
        for layer in _PYCALL_LAYERS:
            per_layer[f"{layer}.pycalls_per_op"] = (
                counted["pycalls"][layer] / counted["executed"]
            )
        per_layer.update(
            {
                "bench.trace_overhead_share": (
                    (run.spanned["host"]["measured_s"] - untraced_s) / untraced_s
                ),
                "bench.wall_ops_per_s": median(
                    r["executed"] / r["host"]["measured_wall_s"] for r in plain
                ),
                "bench.machine_speed": median(
                    r["host"]["measured_s"] / r["host"]["measured_wall_s"]
                    for r in plain
                ),
                "bench.host_cpu_us_per_op": median(
                    r["host"]["cpu_s"] / r["executed"] * 1e6 for r in plain
                ),
                "bench.host_op_us_p50": median(
                    r["host"]["op_us_p50"] for r in op_source
                ),
                "bench.host_op_us_p99": median(
                    r["host"]["op_us_p99"] for r in op_source
                ),
                "bench.rep_spread_share": (
                    (max(rates) - min(rates)) / median(rates)
                ),
            }
        )
    return {
        "workload": run.workload,
        "seed": run.seed,
        "ops": run.ops,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "reps": reps,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "digests": first["digests"],
    }
