"""Experiment runner: build a configured stack, run a workload, measure.

One :class:`ExperimentConfig` — a :class:`~repro.stack.StackSpec` (chip
mode, device architecture, IPA scheme, buffer size) plus a workload and
its run budget — mirrors the knobs of the paper's demo GUI (Figure 5).
:func:`run_experiment` builds it, loads the database, **restarts the
simulated clock and snapshots every counter block**, runs the
transaction budget and diffs the blocks, so the measurements cover
exactly the benchmark phase (the paper formats the SSD before each run
for the same reason).
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Optional

import numpy as np

from repro.engine.database import Database
from repro.flash.stats import DeviceStats, FlashStats
from repro.obs import Observation, ObserveConfig
from repro.stack import StackSpec
from repro.storage.buffer import BufferStats
from repro.storage.manager import ManagerStats, StorageManager
from repro.workloads.base import Workload


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig(StackSpec):
    """One run of the demo system: a :class:`~repro.stack.StackSpec`
    (architecture, mode, scheme, sizing, channels, WAL, ...) plus what
    to run on it.

    Attributes:
        workload: The benchmark to run; the chip is sized from its
            footprint unless ``geometry`` is set.
        transactions: Transaction budget of the measured phase (used when
            ``duration_s`` is None).
        duration_s: When set, run for this much *simulated* time instead
            of a fixed transaction count — the paper's methodology (runs
            of fixed duration, so faster configurations do more work,
            which is why Table 1's IPA columns show MORE host I/O).
        seed: Workload RNG seed (deterministic runs).
        label: Optional display label for reports.
    """

    workload: Workload
    transactions: int = 2000
    duration_s: Optional[float] = None
    seed: int = 42
    label: str = ""

    def display_label(self) -> str:
        if self.label:
            return self.label
        if self.architecture.startswith("ipa"):
            return f"{self.architecture} {self.scheme} {self.mode.value}"
        return self.architecture


@dataclass
class ExperimentResult:
    """One run's measured phase: the interval of each counter block of
    the stack, plus the values that are not counters.

    ``device`` is the backend's host-interface counters, ``flash`` the
    data device's chip counters, ``storage`` the eviction path's and
    ``pool`` the buffer pool's, each covering exactly the measured phase
    (:meth:`~repro.flash.stats.Counters.diff`).
    """

    config_label: str
    workload: str
    transactions: int
    elapsed_s: float
    tps: float
    device: DeviceStats = field(default_factory=DeviceStats)
    flash: FlashStats = field(default_factory=FlashStats)
    storage: ManagerStats = field(default_factory=ManagerStats)
    pool: BufferStats = field(default_factory=BufferStats)
    #: Per-transaction simulated latency percentiles (us).  GC stalls show
    #: up as tail inflation: a transaction that triggers collection pays
    #: for migrations + an erase inline.
    latency_p50_us: float = 0.0
    latency_p95_us: float = 0.0
    latency_p99_us: float = 0.0
    latency_max_us: float = 0.0
    #: Simulated microseconds of the phase per clock category.
    time_breakdown_us: dict = field(default_factory=dict)


@dataclass
class ObservedResult(ExperimentResult):
    """An :class:`ExperimentResult` plus the attached observability bundle.

    Returned by :func:`run_experiment` when ``observe=`` is passed; the
    :attr:`observation` carries the span trace, the time series, the
    write ledger and the histograms (see :class:`repro.obs.Observation`).
    """

    observation: Optional[Observation] = None

    def artefact(self, build: dict) -> dict:
        """This run as one plain-data artefact
        (:meth:`repro.obs.Observation.artefact`) holding every
        :class:`ExperimentResult` field, the intervals nested; ``build``
        says how to rebuild it."""
        assert self.observation is not None
        result = {f.name: getattr(self, f.name) for f in fields(ExperimentResult)}
        return self.observation.artefact(build, asdict(ExperimentResult(**result)))


def build_stack(config: ExperimentConfig) -> tuple[Database, StorageManager]:
    """:meth:`~repro.stack.StackSpec.build` for ``config.workload``."""
    return config.build(config.workload)


def load_stack(
    config: ExperimentConfig,
) -> tuple[Database, StorageManager, np.random.Generator]:
    """:meth:`~repro.stack.StackSpec.load` of ``config.workload``."""
    return config.load(config.workload, config.seed)


def run_experiment(
    config: ExperimentConfig,
    observe: "bool | ObserveConfig | None" = None,
) -> ExperimentResult:
    """Load, snapshot the counters, run the transaction budget, measure.

    Args:
        config: The stack + workload description.
        observe: ``True`` (default knobs) or an :class:`ObserveConfig`
            to attach the observability bundle — span tracing across
            every layer, a write ledger and a time-series sampler.
            The return type is then :class:`ObservedResult` and its
            ``observation`` field holds the bundle.  ``None``/``False``
            (the default) runs un-instrumented at full speed.
    """
    db, manager, rng = load_stack(config)

    # ------------------------------------------------------------------ #
    # Benchmark phase: counters and clock cover only what follows.
    # ------------------------------------------------------------------ #
    obs: Optional[Observation] = None
    if observe:
        obs_config = observe if isinstance(observe, ObserveConfig) else None
        obs = Observation.create(manager, db=db, config=obs_config)
    before = [block.snapshot() for block in _counter_blocks(db, manager)]
    breakdown_before = dict(manager.clock.breakdown_us)

    latencies: list[float] = []
    timed = config.duration_s is not None
    for _ in itertools.count() if timed else range(config.transactions):
        if timed and manager.clock.now_s >= config.duration_s:
            break
        start_us = manager.clock.now_us
        config.workload.transaction(db, rng)
        latency = manager.clock.now_us - start_us
        latencies.append(latency)
        if obs is not None:
            obs.txn_latency.observe(latency)
            obs.sampler.maybe_sample()

    db.checkpoint()
    if obs is not None:
        obs.sampler.sample_now()

    # Fetched again: a multi-chip device's or NoFTL's ``stats`` is a sum
    # made per call.
    txns, device, flash, storage, pool = (
        block.diff(earlier)
        for block, earlier in zip(_counter_blocks(db, manager), before)
    )
    elapsed_s = manager.clock.now_s

    result_cls = ObservedResult if obs is not None else ExperimentResult
    result = result_cls(
        config_label=config.display_label(),
        workload=config.workload.name,
        transactions=txns.committed,
        elapsed_s=elapsed_s,
        tps=txns.committed / elapsed_s if elapsed_s > 0 else 0.0,
        device=device,
        flash=flash,
        storage=storage,
        pool=pool,
        latency_p50_us=float(np.percentile(latencies, 50)) if latencies else 0.0,
        latency_p95_us=float(np.percentile(latencies, 95)) if latencies else 0.0,
        latency_p99_us=float(np.percentile(latencies, 99)) if latencies else 0.0,
        latency_max_us=float(max(latencies)) if latencies else 0.0,
        time_breakdown_us={
            category: round(micros - breakdown_before.get(category, 0.0), 1)
            for category, micros in manager.clock.breakdown_us.items()
        },
    )
    if obs is not None:
        result.observation = obs
    return result


def _counter_blocks(db: Database, manager: StorageManager) -> list[Any]:
    """The stack's :class:`~repro.flash.stats.Counters` blocks a run
    measures: transactions, backend, data device, eviction path, buffer
    pool (typed ``Any``: a block's interval keeps the block's class)."""
    return [
        db.txn_stats,
        manager.device.stats,
        manager.device.chip.stats,
        manager.stats,
        manager.pool.stats,
    ]
