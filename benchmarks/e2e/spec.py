"""What is measured: workload sizes and the metric contract.

``BENCHMARK.json`` at the repository root is the single list of metric
names, units, directions and regression bounds; this module only loads
it.  Op counts live here because they are the benchmark's own choice,
not part of the contract.
"""

from __future__ import annotations

import json
from pathlib import Path

#: Repository root: ``benchmarks/e2e/spec.py`` is two directories down.
ROOT = Path(__file__).resolve().parents[2]

#: The op counts below take about this long per repetition at HEAD on
#: the 2-core reference box.  ``--seconds S`` scales them by S / this,
#: so a run measures a *fixed op count* (simulated results repeat
#: exactly for a seed) that lasts about S seconds.
NOMINAL_SECONDS = 7.0

#: Attempted operations of the measured phase at scale 1.0.
BASE_OPS = {
    "tpcb_evict_ipa": 30_000,
    "ycsb_b_cold": 130_000,
    "ftl_overwrite_trad": 300_000,
    "svc_ycsb_a_2shard": 104_000,
}

WORKLOADS = tuple(BASE_OPS)

#: Ops of the counted (``sys.setprofile``) pass — a prefix of the
#: measured phase for the stack workloads, a whole short run for the
#: service (its ``run()`` cannot be stopped half way).
COUNTED_OPS = 5_000

#: Service shape: ops are spread evenly over the sessions.
SVC_SESSIONS = 8

#: Layers are the package names under ``src/repro/`` that a measured
#: phase can execute, plus ``bench`` for everything else (the
#: benchmark's own loop and wrappers, ``repro.bench`` helpers).
LAYERS = (
    "workloads", "engine", "storage", "core", "ftl", "flash",
    "service", "obs", "bench",
)

#: End-to-end metrics measured on the host; every other end-to-end
#: metric is simulated and repeats exactly for a (seed, op count).
HOST_METRICS = ("host_ops_per_s", "setup_s", "peak_rss_mb")


def ops_for(workload: str, scale: float) -> int:
    """Measured-phase op count of ``workload`` at ``scale``."""
    if scale <= 0:
        raise ValueError(f"scale must be > 0, got {scale}")
    ops = max(int(round(BASE_OPS[workload] * scale)), 1)
    if workload == "svc_ycsb_a_2shard":
        ops = max(ops // SVC_SESSIONS, 1) * SVC_SESSIONS
    return ops


def load_contract() -> dict:
    """The parsed root ``BENCHMARK.json``."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())
