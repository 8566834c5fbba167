"""Unified observability: metrics, tracing, time-series sampling.

This package is the instrumentation spine of the reproduction:

* :mod:`repro.obs.metrics` — callback-read counters / gauges, histograms;
* :mod:`repro.obs.trace`   — cross-layer spans on the simulated clock;
* :mod:`repro.obs.sampler` — periodic time-series snapshots;
* :mod:`repro.obs.export`  — CSV and Prometheus-text exporters;
* :mod:`repro.obs.report`  — the ``python -m repro obs`` post-run report.

The one-call entry point is the harness hook::

    from repro.bench.harness import ExperimentConfig, run_experiment
    result = run_experiment(config, observe=True)      # ObservedResult
    result.observation.tracer.by_name("gc_erase")      # attributed stalls
    result.observation.sampler.samples                 # time series
    result.observation.export_prometheus()             # scrapeable text

Everything is off by default: un-observed stacks see only the shared
:data:`~repro.obs.trace.NULL_TRACER` / :data:`~repro.obs.metrics.NULL_REGISTRY`
singletons, whose cost is one attribute test per instrumented site.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields
from typing import Optional

from repro.obs.export import (
    registry_to_prometheus,
    samples_to_csv,
    write_samples_csv,
)
from repro.obs.ledger import (
    ERASE_COUNT_BUCKETS,
    LIFETIME_BUCKETS_US,
    LifetimeTracker,
    NULL_LEDGER,
    NULL_LIFETIMES,
    WRITE_CAUSES,
    WriteLedger,
    erase_count_histogram,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_US,
    MetricsRegistry,
    NULL_METRIC,
    NULL_REGISTRY,
)
from repro.obs.sampler import TimeSeriesSampler
from repro.obs.trace import (
    JsonlSink,
    NULL_TRACER,
    Tracer,
    attribute_gc_erases,
    gc_attribution_rate,
)

__all__ = [
    "ObserveConfig",
    "Observation",
    "WriteLedger",
    "NULL_LEDGER",
    "LifetimeTracker",
    "NULL_LIFETIMES",
    "WRITE_CAUSES",
    "LIFETIME_BUCKETS_US",
    "ERASE_COUNT_BUCKETS",
    "erase_count_histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NULL_METRIC",
    "Tracer",
    "NULL_TRACER",
    "JsonlSink",
    "TimeSeriesSampler",
    "samples_to_csv",
    "write_samples_csv",
    "registry_to_prometheus",
    "attribute_gc_erases",
    "gc_attribution_rate",
    "DEFAULT_LATENCY_BUCKETS_US",
]


@dataclass
class ObserveConfig:
    """Knobs of the ``observe=`` harness hook.

    Attributes:
        sample_interval_s: Sampler period in *simulated* seconds.
        trace_path: When set, every finished span is appended to this
            JSONL file as it closes (the ring buffer is kept as well).
        trace_capacity: Ring-buffer size for finished spans.
        trace_chip_ops: Also record leaf spans for physical programs /
            reprograms (erases are always recorded).  High-volume; off
            by default.
        trace_channel_ops: Also record per-channel scheduler events on a
            multi-channel device (``bus_xfer`` / ``channel_op`` /
            ``channel_read``) — the raw material of the Chrome-trace
            timeline exporter.  High-volume; off by default.
    """

    sample_interval_s: float = 0.02
    trace_path: Optional[str] = None
    trace_capacity: int = 200_000
    trace_chip_ops: bool = False
    trace_channel_ops: bool = False


def _register_stats_views(
    registry: MetricsRegistry, getter, prefix: str, kind: str = "counter"
) -> None:
    """Expose every numeric field of a stats dataclass as a callback.

    ``getter`` is re-evaluated on every collection, so it works for
    ``NoFtlDevice.stats`` (a property computing a fresh aggregate) as
    well as for plain attribute-held dataclasses.
    """
    sample = getter()
    for f in dataclass_fields(sample):
        if not isinstance(getattr(sample, f.name), (int, float)):
            continue
        registry.register_callback(
            f"{prefix}{f.name}",
            (lambda g=getter, n=f.name: getattr(g(), n)),
            help=f"{type(sample).__name__}.{f.name}",
            kind=kind,
        )


class Observation:
    """The attached observability bundle of one experiment run.

    Build with :meth:`create` on a stack from
    :func:`~repro.bench.harness.build_stack`; the harness does this for
    you when ``observe=`` is passed to ``run_experiment``.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        tracer: Tracer,
        sampler: TimeSeriesSampler,
        config: ObserveConfig,
    ) -> None:
        self.registry = registry
        self.tracer = tracer
        self.sampler = sampler
        self.config = config
        #: Per-transaction simulated latency (us).
        self.txn_latency = registry.histogram(
            "txn_latency_us",
            help="simulated per-transaction latency",
            bounds=DEFAULT_LATENCY_BUCKETS_US,
        )
        #: Write-attribution ledger / death-time tracker / observed chip
        #: (device).  NULL until :meth:`create` wires a live stack, so a
        #: directly-constructed Observation stays safe to render.
        self.ledger = NULL_LEDGER
        self.lifetimes = NULL_LIFETIMES
        self.chip = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def create(cls, manager, db=None, config: ObserveConfig | None = None) -> "Observation":
        """Attach a fresh registry + tracer + sampler to a built stack."""
        config = config or ObserveConfig()
        registry = MetricsRegistry(enabled=True)
        sink = JsonlSink(config.trace_path) if config.trace_path else None
        tracer = Tracer(
            clock=manager.clock, capacity=config.trace_capacity, sink=sink
        )
        tracer.trace_chip_ops = config.trace_chip_ops
        tracer.trace_channel_ops = config.trace_channel_ops

        obs = cls(registry, tracer, sampler=None, config=config)  # type: ignore[arg-type]

        device = manager.device
        chip = device.chip
        # Imported here: repro.flash imports this package's null objects.
        from repro.flash.device import FlashDevice

        multi_channel = isinstance(chip, FlashDevice)

        # Write-attribution ledger + death-time tracking.  The aggregate
        # lifetime histogram is registry-owned; the per-cause members are
        # adopted so exporters enumerate the whole labeled family.
        ledger = WriteLedger()
        lifetimes = LifetimeTracker(
            manager.clock,
            aggregate=registry.histogram(
                "lba_lifetime_us",
                help="simulated LBA write-to-invalidate lifetime",
                bounds=LIFETIME_BUCKETS_US,
            ),
        )
        manager.attach(tracer, ledger, lifetimes)
        obs.ledger = ledger
        obs.lifetimes = lifetimes
        obs.chip = chip
        for hist in lifetimes.by_cause.values():
            registry.register_metric(hist)
        for cause, record in ledger.by_cause.items():
            for field_ in (
                "programs", "reprograms", "partial_programs", "bytes",
                "erases",
            ):
                registry.register_callback(
                    f"wa_{field_}",
                    (lambda r=record, f=field_: getattr(r, f)),
                    help=f"physical {field_} attributed to this cause",
                    kind="counter",
                    labels={"cause": cause},
                )
        registry.register_callback(
            "wear_erase_count_max",
            (lambda c=chip: max(b.erase_count for b in c.blocks)),
            help="most-worn block's erase count",
            kind="gauge",
        )
        registry.register_callback(
            "wear_erase_count_min",
            (lambda c=chip: min(b.erase_count for b in c.blocks)),
            help="least-worn block's erase count",
            kind="gauge",
        )
        _register_stats_views(registry, lambda: device.stats, "device_")
        _register_stats_views(registry, lambda: chip.stats, "flash_")
        _register_stats_views(registry, lambda: manager.stats, "manager_")
        _register_stats_views(registry, lambda: manager.pool.stats, "buffer_")
        for category in (
            "read", "program", "erase", "bus", "host", "channel_wait", "other"
        ):
            registry.register_callback(
                f"clock_{category}_us",
                (lambda c=category, clk=manager.clock: clk.breakdown_us.get(c, 0.0)),
                help=f"simulated time spent in {category}",
                kind="counter",
            )
        if multi_channel:
            # Proper Prometheus label sets — channel_busy_us{channel="2"}
            # — rather than a flattened name per channel.
            for index in range(chip.channels):
                labels = {"channel": str(index)}
                registry.register_callback(
                    "channel_queue_depth",
                    (lambda d=chip, i=index: d.queue_depth_of(i)),
                    help="in-flight array ops per channel",
                    kind="gauge",
                    labels=labels,
                )
                registry.register_callback(
                    "channel_busy_us",
                    (lambda d=chip, i=index: d.channel_stats()[i]["busy_us"]),
                    help="array time scheduled per channel",
                    kind="counter",
                    labels=labels,
                )
                registry.register_callback(
                    "channel_wait_us",
                    (lambda d=chip, i=index: d.channel_stats()[i]["wait_us"]),
                    help="host stalls waiting per channel",
                    kind="counter",
                    labels=labels,
                )
        collectors = {
            "invalidations": lambda: device.stats.page_invalidations,
            "gc_erases": lambda: device.stats.gc_erases,
            "gc_migrations": lambda: device.stats.gc_page_migrations,
            "host_writes": lambda: device.stats.total_host_write_ops,
            "in_place_appends": lambda: device.stats.in_place_appends,
            "flash_reprograms": lambda: chip.stats.page_reprograms,
            "free_blocks": lambda: device.free_blocks,
            "write_amp": lambda: (
                chip.stats.bytes_programmed
                / max(device.stats.host_bytes_written, 1)
            ),
        }
        if multi_channel:
            collectors["max_queue_depth"] = lambda: max(
                chip.queue_depth_of(i) for i in range(chip.channels)
            )
            collectors["channel_wait_us"] = (
                lambda clk=manager.clock: clk.breakdown_us.get(
                    "channel_wait", 0.0
                )
            )
        if db is not None:
            collectors["txns"] = lambda: db.txn_stats.committed
        sampler = TimeSeriesSampler(
            manager.clock,
            interval_s=config.sample_interval_s,
            collectors=collectors,
            rates=(
                "invalidations", "gc_erases", "gc_migrations",
                "host_writes", "in_place_appends", "flash_reprograms",
                "txns",
            ) if db is not None else (
                "invalidations", "gc_erases", "gc_migrations",
                "host_writes", "in_place_appends", "flash_reprograms",
            ),
        )
        obs.sampler = sampler
        return obs

    # ------------------------------------------------------------------ #
    # Convenience accessors / exporters
    # ------------------------------------------------------------------ #

    @property
    def samples(self) -> list[dict]:
        return self.sampler.samples

    def spans(self) -> list:
        return self.tracer.finished()

    def gc_attribution(self) -> list[dict]:
        """Per gc_erase span: host write + transaction that paid for it."""
        return attribute_gc_erases(self.tracer.finished())

    def gc_attribution_rate(self) -> float:
        return gc_attribution_rate(self.tracer.finished())

    def export_csv(self) -> str:
        return samples_to_csv(self.sampler.samples, self.sampler.columns)

    def wear_histogram(self):
        """Per-block erase-count histogram at the current instant.

        Computed on demand (wear only changes on erases, so snapshotting
        per-export is cheaper than observing on the erase hot path).
        None when no chip is attached.
        """
        if self.chip is None:
            return None
        return erase_count_histogram(self.chip.blocks)

    def export_prometheus(self, prefix: str = "repro_") -> str:
        """Run registry plus the per-block wear histogram."""
        parts = [registry_to_prometheus(self.registry, prefix=prefix)]
        wear = self.wear_histogram()
        if wear is not None:
            wear_registry = MetricsRegistry(enabled=True)
            wear_registry.register_metric(wear)
            parts.append(registry_to_prometheus(wear_registry, prefix=prefix))
        return "".join(parts)

    def close(self) -> None:
        """Flush and close the trace sink (if any)."""
        self.tracer.close()
