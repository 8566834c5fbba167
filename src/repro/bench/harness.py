"""Experiment runner: build a configured stack, run a workload, measure.

One :class:`ExperimentConfig` describes a full stack — chip mode, device
architecture, IPA scheme, buffer size, workload — mirroring the knobs of
the paper's demo GUI (Figure 5).  :func:`run_experiment` builds it,
loads the database, **resets all counters and the simulated clock**, and
then runs the transaction budget, so the measurements cover exactly the
benchmark phase (the paper formats the SSD before each run for the same
reason).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.baselines.ipl import IplConfig, IplPolicy, IplStore
from repro.core.config import IPA_DISABLED, IpaScheme
from repro.engine.database import Database
from repro.flash.chip import FlashChip
from repro.flash.device import FlashDevice
from repro.flash.geometry import FlashGeometry
from repro.flash.modes import FlashMode
from repro.flash.stats import DeviceStats, FlashStats
from repro.ftl.ipa_ftl import IpaFtl
from repro.ftl.noftl import IpaRegionConfig, NoFtlDevice
from repro.ftl.page_mapping import PageMappingFtl
from repro.obs import Observation, ObserveConfig
from repro.storage.manager import (
    IpaBlockDevicePolicy,
    IpaNativePolicy,
    StorageManager,
    TraditionalPolicy,
    WritePolicy,
)
from repro.workloads.base import Workload

ARCHITECTURES = ("traditional", "ipa-blockdev", "ipa-native", "ipl")

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


@dataclass
class ExperimentConfig:
    """One run of the demo system.

    Attributes:
        workload: The benchmark to run.
        architecture: One of :data:`ARCHITECTURES`.
        mode: Flash operating mode (pSLC / odd-MLC for the IPA MLC
            configurations of Section 3; IPL requires SLC).
        scheme: IPA N x M scheme (ignored by traditional / IPL).
        transactions: Transaction budget of the measured phase (used when
            ``duration_s`` is None).
        duration_s: When set, run for this much *simulated* time instead
            of a fixed transaction count — the paper's methodology (runs
            of fixed duration, so faster configurations do more work,
            which is why Table 1's IPA columns show MORE host I/O).
        buffer_pages: Buffer pool frames.
        geometry: Chip geometry.  When None (default) the chip is sized
            from the workload footprint so the database fills
            ``device_utilization`` of the logical space — the regime the
            paper measures in, where overwrites create real GC pressure.
        page_size: Page size used by auto-sizing (paper: 8 KB DB pages).
        device_utilization: Fraction of logical pages the DB occupies
            under auto-sizing.
        over_provisioning: FTL over-provisioning fraction.
        lsb_first: NoFTL regions fill LSB pages before MSB pages
            (odd-MLC optimization: more data lands on appendable pages).
        with_wal: Attach a write-ahead log on a dedicated log chip
            sharing the simulated clock (commit latency becomes real).
        channels: Flash channels.  1 (default) drives a single
            :class:`FlashChip`; >1 builds a :class:`FlashDevice` that
            stripes blocks across that many chips and overlaps array
            latencies per channel (see ``docs/parallelism.md``).  IPL is
            single-chip only.
        background_gc: Run garbage collection incrementally in the
            background (budgeted migrations per foreground write)
            instead of synchronously inside the eviction path.
        seed: Workload RNG seed (deterministic runs).
        label: Optional display label for reports.
    """

    workload: Workload
    architecture: str = "traditional"
    mode: FlashMode = FlashMode.SLC
    scheme: IpaScheme = IPA_DISABLED
    transactions: int = 2000
    duration_s: Optional[float] = None
    buffer_pages: int = 64
    geometry: Optional[FlashGeometry] = None
    page_size: int = 4096
    device_utilization: float = 0.80
    over_provisioning: float = 0.15
    lsb_first: bool = False
    with_wal: bool = False
    channels: int = 1
    background_gc: bool = False
    seed: int = 42
    label: str = ""

    def __post_init__(self) -> None:
        if self.architecture not in ARCHITECTURES:
            raise ValueError(
                f"architecture must be one of {ARCHITECTURES}, "
                f"got {self.architecture!r}"
            )
        if self.architecture.startswith("ipa") and not self.scheme.enabled:
            raise ValueError("IPA architectures need an enabled N x M scheme")
        if self.architecture == "ipl" and self.mode is not FlashMode.SLC:
            raise ValueError("IPL runs on SLC (its log sectors need appends)")
        if self.channels < 1:
            raise ValueError("channels must be >= 1")
        if self.architecture == "ipl" and self.channels > 1:
            raise ValueError(
                "IPL drives the chip's log sectors directly and is "
                "single-chip only"
            )

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
    :attr:`observation` carries the metrics registry, the span trace and
    the time series (see :class:`repro.obs.Observation`).
    """

    observation: Optional[Observation] = None


def _auto_geometry(config: ExperimentConfig) -> FlashGeometry:
    """Size the chip so the DB fills ``device_utilization`` of it.

    Accounts for the mode's capacity factor (pSLC halves usable pages),
    the FTL's over-provisioning, and IPL's log-region reservation, so
    every architecture sees the *same logical pressure* — the fairness
    requirement behind Table 1.
    """
    pages_per_block = 64
    footprint = config.workload.estimate_pages(config.page_size)
    target_logical = int(footprint / config.device_utilization) + 1
    if config.architecture == "ipl":
        ipl = IplConfig()
        data_fraction = (pages_per_block - ipl.log_pages_per_block) / pages_per_block
        blocks = int(
            target_logical / (pages_per_block * data_fraction)
        ) + ipl.spare_blocks + 2
    else:
        from repro.flash.modes import rules_for

        capacity_factor = rules_for(config.mode).capacity_factor
        usable_per_block = pages_per_block * capacity_factor
        blocks = int(
            target_logical / ((1.0 - config.over_provisioning) * usable_per_block)
        ) + 2
    blocks = max(blocks, 8)
    if config.channels > 1 and blocks % config.channels:
        # Round up so the blocks stripe evenly over the channels.
        blocks += config.channels - blocks % config.channels
    return FlashGeometry(
        page_size=config.page_size,
        oob_size=128,
        pages_per_block=pages_per_block,
        blocks=blocks,
    )


def build_stack(
    config: ExperimentConfig,
) -> tuple[Database, StorageManager]:
    """Construct device + manager + database for a config (no load)."""
    geometry = config.geometry or _auto_geometry(config)
    if config.channels > 1:
        chip = FlashDevice(geometry, channels=config.channels, mode=config.mode)
    else:
        chip = FlashChip(geometry, mode=config.mode)
    policy: WritePolicy
    scheme = config.scheme
    if config.architecture == "traditional":
        device = PageMappingFtl(
            chip,
            over_provisioning=config.over_provisioning,
            background_gc=config.background_gc,
        )
        policy = TraditionalPolicy()
        scheme = IPA_DISABLED
    elif config.architecture == "ipa-blockdev":
        device = IpaFtl(
            chip,
            over_provisioning=config.over_provisioning,
            background_gc=config.background_gc,
        )
        policy = IpaBlockDevicePolicy()
    elif config.architecture == "ipa-native":
        noftl = NoFtlDevice(
            chip,
            over_provisioning=config.over_provisioning,
            background_gc=config.background_gc,
        )
        noftl.create_region(
            "db",
            blocks=geometry.blocks,
            ipa=IpaRegionConfig(scheme.n_records, scheme.m_bytes),
            lsb_first=config.lsb_first,
        )
        device = noftl
        policy = IpaNativePolicy()
    else:  # ipl
        device = IplStore(chip, IplConfig())
        policy = IplPolicy()
        scheme = IPA_DISABLED
    manager = StorageManager(
        device, scheme, policy, buffer_capacity=config.buffer_pages
    )
    if config.with_wal:
        from repro.engine.wal import WriteAheadLog

        log_chip = FlashChip(
            FlashGeometry(
                page_size=geometry.page_size,
                oob_size=16,
                pages_per_block=geometry.pages_per_block,
                blocks=max(geometry.blocks // 8, 8),
            ),
            clock=manager.clock,
        )
        manager.wal = WriteAheadLog(log_chip)
    return Database(manager), manager


def load_stack(
    config: ExperimentConfig,
) -> tuple[Database, StorageManager, np.random.Generator]:
    """Build the stack, load the workload, then restart simulated time.

    The clock is zeroed after the load phase and the chip's scheduling
    state is dropped with it (``quiesce``): a multi-channel device's
    in-flight end times were computed against the old clock and would
    read as a huge future backlog, charging the first measured
    operations for load-phase array work.  Returns the workload
    generator (seeded from ``config.seed``) the load phase drew from.
    """
    db, manager = build_stack(config)
    rng = np.random.default_rng(config.seed)
    config.workload.build(db, rng)
    manager.clock.reset()
    manager.device.chip.quiesce()
    return db, manager, rng


def run_experiment(
    config: ExperimentConfig,
    observe: "bool | ObserveConfig | None" = None,
) -> ExperimentResult:
    """Load, reset counters, run the transaction budget, measure.

    Args:
        config: The stack + workload description.
        observe: ``True`` (default knobs) or an :class:`ObserveConfig`
            to attach the observability bundle — span tracing across
            every layer, a metrics registry and a time-series sampler.
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
    if config.duration_s is not None:
        while manager.clock.now_s < config.duration_s:
            start_us = manager.clock.now_us
            config.workload.transaction(db, rng)
            latency = manager.clock.now_us - start_us
            latencies.append(latency)
            if obs is not None:
                obs.txn_latency.observe(latency)
                obs.sampler.maybe_sample()
    else:
        for _ in range(config.transactions):
            start_us = manager.clock.now_us
            config.workload.transaction(db, rng)
            latency = manager.clock.now_us - start_us
            latencies.append(latency)
            if obs is not None:
                obs.txn_latency.observe(latency)
                obs.sampler.maybe_sample()

    db.checkpoint()
    if isinstance(manager.device, IplStore):
        manager.device.flush_log_buffers()
    if obs is not None:
        obs.sampler.sample_now()
        obs.close()  # flush the JSONL sink; the ring buffer stays live

    device = manager.device.stats.diff(device_before)
    flash = manager.device.chip.stats.diff(flash_before)
    elapsed_s = manager.clock.now_s
    committed = db.txn_stats.committed - txns_before
    fetches = pool.stats.fetches - fetches_before
    hits = pool.stats.hits - hits_before
    total_host_writes = device.host_writes + device.host_delta_writes

    result_cls = ObservedResult if obs is not None else ExperimentResult
    result = result_cls(
        config_label=config.display_label(),
        workload=config.workload.name,
        transactions=committed,
        elapsed_s=elapsed_s,
        tps=committed / elapsed_s if elapsed_s > 0 else 0.0,
        host_reads=device.host_reads,
        host_writes=total_host_writes,
        host_page_writes=device.host_writes,
        host_delta_writes=device.host_delta_writes,
        host_bytes_written=device.host_bytes_written,
        host_bytes_read=device.host_bytes_read,
        page_invalidations=device.page_invalidations,
        in_place_appends=device.in_place_appends,
        out_of_place_writes=device.out_of_place_writes,
        gc_page_migrations=device.gc_page_migrations,
        gc_erases=device.gc_erases,
        migrations_per_host_write=(
            device.gc_page_migrations / total_host_writes
            if total_host_writes
            else 0.0
        ),
        erases_per_host_write=(
            device.gc_erases / total_host_writes if total_host_writes else 0.0
        ),
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
