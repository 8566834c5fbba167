"""Unified observability: tracing, time-series sampling, one run artefact.

This package is the instrumentation spine of the reproduction:

* :mod:`repro.obs.metrics`     — fixed-bucket histograms;
* :mod:`repro.obs.trace`       — cross-layer spans on the simulated clock;
* :mod:`repro.obs.sampler`     — periodic time-series snapshots;
* :mod:`repro.obs.ledger`      — per-cause write attribution, LBA lifetimes;
* :mod:`repro.obs.report`      — the ``python -m repro obs`` report, which
  renders a run artefact (:meth:`Observation.artefact`), live or loaded;
* :mod:`repro.obs.chrometrace` — the Perfetto timeline of its spans.

The one-call entry point is the harness hook::

    from repro.bench.harness import ExperimentConfig, run_experiment
    result = run_experiment(config, observe=True)      # ObservedResult
    result.observation.tracer.by_name("gc_erase")      # attributed stalls
    result.observation.sampler.samples                 # time series
    artefact = result.artefact({"seed": config.seed})  # plain data
    print(render_report(artefact))

Everything is off by default: un-observed stacks see only the shared
:data:`~repro.obs.trace.NULL_TRACER` and null ledger singletons, whose
cost is one attribute test per instrumented site.
"""

from __future__ import annotations

from dataclasses import dataclass

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
)
from repro.obs.sampler import TimeSeriesSampler
from repro.obs.trace import (
    NULL_TRACER,
    Tracer,
    attribute_gc_erases,
    gc_attribution_rate,
)

__all__ = [
    "ARTEFACT_VERSION",
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
    "Tracer",
    "NULL_TRACER",
    "TimeSeriesSampler",
    "attribute_gc_erases",
    "gc_attribution_rate",
    "DEFAULT_LATENCY_BUCKETS_US",
]

#: Schema version of :meth:`Observation.artefact`; ``load_artefact``
#: refuses any other.
ARTEFACT_VERSION = 1


@dataclass
class ObserveConfig:
    """Knobs of the ``observe=`` harness hook.

    Attributes:
        sample_interval_s: Sampler period in *simulated* seconds.
        trace_channel_ops: Also record per-channel scheduler events on a
            multi-channel device (``bus_xfer`` / ``channel_op`` /
            ``channel_read``) — the raw material of the Chrome-trace
            timeline exporter.  High-volume; off by default.
    """

    sample_interval_s: float = 0.02
    trace_channel_ops: bool = False


class Observation:
    """The attached observability bundle of one experiment run.

    Build with :meth:`create` on a stack from
    :meth:`repro.stack.StackSpec.build`; the harness does this for
    you when ``observe=`` is passed to ``run_experiment``.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        tracer: Tracer,
        sampler: TimeSeriesSampler,
        config: ObserveConfig,
        ledger: WriteLedger,
        lifetimes: LifetimeTracker,
        chip,
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
        #: Write-attribution ledger, death-time tracker and the observed
        #: chip (device) whose blocks the wear histogram counts.
        self.ledger = ledger
        self.lifetimes = lifetimes
        self.chip = chip

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def create(cls, manager, db=None, config: ObserveConfig | None = None) -> "Observation":
        """Attach a fresh registry + tracer + sampler to a built stack."""
        config = config or ObserveConfig()
        registry = MetricsRegistry()
        tracer = Tracer(clock=manager.clock)
        tracer.trace_channel_ops = config.trace_channel_ops

        device = manager.device
        chip = device.chip
        # Imported here: repro.flash imports this package's null objects.
        from repro.flash.device import FlashDevice

        multi_channel = isinstance(chip, FlashDevice)

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
        return cls(registry, tracer, sampler, config, ledger, lifetimes, chip)

    # ------------------------------------------------------------------ #
    # Accessors and the run artefact
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

    def artefact(self, build: dict, result: dict) -> dict:
        """The run as plain, JSON-ready data: the one thing
        :func:`repro.obs.report.render_report` and
        :func:`repro.obs.chrometrace.write_chrome_trace` read.

        Args:
            build: What rebuilds the run (the ``obs`` CLI stores its
                ``build_config`` arguments and the seed).
            result: The run's ``ExperimentResult`` fields (the report
                reads ``config_label``, ``workload``, ``transactions``
                and ``tps``).
        """
        lifetimes = self.lifetimes
        return {
            "version": ARTEFACT_VERSION,
            "build": build,
            "result": result,
            "spans": [span.to_dict() for span in self.tracer.finished()],
            "spans_dropped": self.tracer.dropped,
            "samples": self.sampler.samples,
            "ledger": {
                "causes": {
                    record.cause: record.as_dict()
                    for record in self.ledger.records()
                },
                "conservation_errors": self.ledger.conservation_errors(),
            },
            "erase_counts": [block.erase_count for block in self.chip.blocks],
            "histograms": {
                "txn_latency_us": self.txn_latency.to_dict(),
                "lba_lifetime_us": lifetimes.aggregate.to_dict(),
            },
            "lifetimes": {
                "live_pages": lifetimes.live_pages,
                "by_cause": {
                    cause: hist.to_dict()
                    for cause, hist in lifetimes.by_cause.items()
                },
            },
        }
