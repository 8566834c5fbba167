"""Experiment runner: build a configured stack, run a workload, measure.

One :class:`ExperimentConfig` — a :class:`~repro.stack.StackSpec` (chip
mode, device architecture, IPA scheme, buffer size) plus a workload and
its run budget — mirrors the knobs of the paper's demo GUI (Figure 5).
:func:`run_experiment` builds it, loads the database, **resets all
counters and the simulated clock**, and then runs the transaction
budget, so the measurements cover exactly the benchmark phase (the
paper formats the SSD before each run for the same reason).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from repro.engine.database import Database
from repro.flash.stats import DeviceStats, FlashStats
from repro.obs import Observation, ObserveConfig
from repro.stack import StackSpec
from repro.storage.manager import StorageManager
from repro.workloads.base import Workload

#: Backend-specific :class:`DeviceStats` counters that Table 1 has no
#: column for; :func:`run_experiment` reports them under ``extra``.
EXTRA_COUNTERS = (
    "wear_leveling_moves",
    "retired_blocks",
    "background_gc_migrations",
    "background_gc_erases",
    "gc_emergency_syncs",
    "log_sector_flushes",
    "merges",
    "log_page_reads",
)


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
    """Everything Table 1 reports, plus supporting detail."""

    config_label: str
    workload: str
    transactions: int
    elapsed_s: float
    tps: float
    host_reads: int
    host_writes: int  # whole-page writes + write_delta commands
    host_page_writes: int
    host_delta_writes: int
    host_bytes_written: int
    host_bytes_read: int
    page_invalidations: int
    in_place_appends: int
    out_of_place_writes: int
    gc_page_migrations: int
    gc_erases: int
    migrations_per_host_write: float
    erases_per_host_write: float
    flash_programs: int
    flash_reprograms: int
    flash_erases: int
    buffer_hit_rate: float
    dirty_evictions: int
    ipa_flushes: int
    oop_flushes: int
    net_bytes_updated: int
    #: Per-transaction simulated latency percentiles (us).  GC stalls show
    #: up as tail inflation: a transaction that triggers collection pays
    #: for migrations + an erase inline.
    latency_p50_us: float = 0.0
    latency_p95_us: float = 0.0
    latency_p99_us: float = 0.0
    latency_max_us: float = 0.0
    dirty_eviction_net_bytes: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)


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
        :class:`ExperimentResult` field; ``build`` says how to rebuild it."""
        assert self.observation is not None
        result = {f.name: getattr(self, f.name) for f in fields(ExperimentResult)}
        return self.observation.artefact(build, result)


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
    """Load, reset counters, run the transaction budget, measure.

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
    device_before: DeviceStats = manager.device.stats.snapshot()
    flash_before: FlashStats = manager.device.chip.stats.snapshot()
    mgr_ipa_before = manager.stats.ipa_flushes
    mgr_oop_before = manager.stats.oop_flushes
    mgr_net_before = manager.stats.net_bytes_updated
    pool = manager.pool
    pool.stats.dirty_eviction_net_bytes = []
    hits_before, fetches_before = pool.stats.hits, pool.stats.fetches
    dirty_before = pool.stats.dirty_evictions
    txns_before = db.txn_stats.committed

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

    device = manager.device.stats.diff(device_before)
    flash = manager.device.chip.stats.diff(flash_before)
    elapsed_s = manager.clock.now_s
    committed = db.txn_stats.committed - txns_before
    fetches = pool.stats.fetches - fetches_before
    hits = pool.stats.hits - hits_before

    result_cls = ObservedResult if obs is not None else ExperimentResult
    result = result_cls(
        config_label=config.display_label(),
        workload=config.workload.name,
        transactions=committed,
        elapsed_s=elapsed_s,
        tps=committed / elapsed_s if elapsed_s > 0 else 0.0,
        host_reads=device.host_reads,
        host_writes=device.total_host_write_ops,
        host_page_writes=device.host_writes,
        host_delta_writes=device.host_delta_writes,
        host_bytes_written=device.host_bytes_written,
        host_bytes_read=device.host_bytes_read,
        page_invalidations=device.page_invalidations,
        in_place_appends=device.in_place_appends,
        out_of_place_writes=device.out_of_place_writes,
        gc_page_migrations=device.gc_page_migrations,
        gc_erases=device.gc_erases,
        migrations_per_host_write=device.migrations_per_host_write,
        erases_per_host_write=device.erases_per_host_write,
        flash_programs=flash.page_programs,
        flash_reprograms=flash.page_reprograms,
        flash_erases=flash.block_erases,
        buffer_hit_rate=hits / fetches if fetches else 0.0,
        dirty_evictions=pool.stats.dirty_evictions - dirty_before,
        ipa_flushes=manager.stats.ipa_flushes - mgr_ipa_before,
        oop_flushes=manager.stats.oop_flushes - mgr_oop_before,
        net_bytes_updated=manager.stats.net_bytes_updated - mgr_net_before,
        latency_p50_us=float(np.percentile(latencies, 50)) if latencies else 0.0,
        latency_p95_us=float(np.percentile(latencies, 95)) if latencies else 0.0,
        latency_p99_us=float(np.percentile(latencies, 99)) if latencies else 0.0,
        latency_max_us=float(max(latencies)) if latencies else 0.0,
        dirty_eviction_net_bytes=list(pool.stats.dirty_eviction_net_bytes),
        extra={
            **{name: getattr(device, name) for name in EXTRA_COUNTERS},
            "time_breakdown_us": {
                category: round(
                    micros - breakdown_before.get(category, 0.0), 1
                )
                for category, micros in manager.clock.breakdown_us.items()
            },
        },
    )
    if obs is not None:
        result.observation = obs
    return result
