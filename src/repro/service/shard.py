"""One shard: an independent engine + FTL + flash stack plus its queue.

A shard owns everything below the front end: its own simulated clock,
flash device (optionally multi-channel with the PR 4 scheduler), storage
manager, WAL on a dedicated log chip, database, workload schema, metrics
registry and admission controller.  Shards share *nothing* — that is the
whole point of hash-sharding, and it is also what makes the per-shard
media digest a meaningful determinism contract.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence

from repro.flash import media_digest
from repro.obs import Observation
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_US,
    NULL_REGISTRY,
    MetricsRegistry,
)
from repro.service.admission import AdmissionController
from repro.service.config import ServiceConfig
from repro.stack import StackSpec

if TYPE_CHECKING:
    import numpy as np

    from repro.service.replication import ShardReplica
    from repro.service.session import Request

__all__ = ["Shard"]


class Shard:
    """A fully independent storage stack serving one hash slice.

    Args:
        index: Shard index (for labels and reports).
        config: The service configuration (stack knobs are per-shard).
        build_seed: Seed for this shard's schema-build RNG, derived from
            the master seed by the caller.  The build RNG is consumed
            entirely during construction; benchmark-phase randomness
            comes only from the session RNGs.
    """

    def __init__(self, index: int, config: ServiceConfig, build_seed: int) -> None:
        self.index = index
        self.config = config
        self.workload = config.workload_factory()
        spec = StackSpec(
            architecture=config.architecture,
            mode=config.mode,
            scheme=config.scheme,
            buffer_pages=config.buffer_pages,
            channels=config.channels,
            background_gc=config.background_gc,
            with_wal=True,
        )
        # Service time starts at zero: build-phase latencies are not the
        # tier's problem (the same reset the harness does before
        # measuring).  The build generator is spent here.
        self.db, self.manager, _ = spec.load(self.workload, build_seed)

        self.observation: Optional[Observation] = None
        if config.observe:
            self.observation = Observation.create(self.manager, db=self.db)
            self.metrics: MetricsRegistry = self.observation.registry
        else:
            self.metrics = NULL_REGISTRY
        self.txn_latency = self.metrics.histogram(
            "service_txn_latency_us",
            help="client-view latency: first attempt to completion",
            bounds=DEFAULT_LATENCY_BUCKETS_US,
        )
        self.queue_wait = self.metrics.histogram(
            "service_queue_wait_us",
            help="time a request spent queued before its batch started",
            bounds=DEFAULT_LATENCY_BUCKETS_US,
        )
        admission = self.admission = AdmissionController(
            depth=config.queue_depth, policy=config.admission_policy
        )
        metrics = self.metrics
        metrics.register_callback(
            "service_txns_completed",
            lambda: self.txns_completed,
            help="transactions completed by this shard",
            kind="counter",
        )
        metrics.register_callback(
            "service_group_commits",
            lambda: self.group_commits,
            help="WAL commit groups flushed",
            kind="counter",
        )
        metrics.register_callback(
            "service_admission_sheds",
            lambda: admission.sheds,
            help="requests rejected at admission",
            kind="counter",
        )
        metrics.register_callback(
            "service_admission_waits",
            lambda: admission.waits,
            help="distinct parks at admission (not retry attempts)",
            kind="counter",
        )
        metrics.register_callback(
            "service_admission_wait_us",
            lambda: admission.wait_us,
            help="total time parked requests waited for a queue slot",
            kind="counter",
        )
        #: Dispatch log: tenant ids per executed batch, in order.  This
        #: is the replication seam — feeding these groups (plus the
        #: derived session RNGs) back through
        #: :func:`repro.service.service.replay_shard_stream` reproduces
        #: the shard's media bytes exactly.
        self.dispatch_log: List[List[int]] = []
        #: Raw client-view latencies (us) for exact percentiles.
        self.latencies_us: List[float] = []
        #: Virtual time the shard is busy until.
        self.busy_until_us: float = 0.0
        #: Optional standby replica (attached by the service when
        #: ``config.replication`` is on).  ``None`` leaves this shard's
        #: execution path byte-identical to an unreplicated run.
        self.replica: Optional["ShardReplica"] = None

    def attach_replica(self, replica: "ShardReplica") -> None:
        """Wire a standby: every future commit group is shipped to it."""
        self.replica = replica

    @property
    def group_commits(self) -> int:
        """WAL commit groups flushed: one per executed batch."""
        return len(self.dispatch_log)

    @property
    def txns_completed(self) -> int:
        """Transactions completed by this shard."""
        return sum(map(len, self.dispatch_log))

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def execute_batch(self, requests: Sequence["Request"]) -> float:
        """Run a batch as one WAL commit group; return its duration (us).

        Duration is measured on the *shard's* simulated clock; the
        scheduler maps it onto global virtual time.  All transactions in
        the batch become durable — and therefore complete — together, at
        the group flush; with a replica attached they complete only at
        the standby's acknowledgement (synchronous replication), so the
        returned duration additionally covers the replication round trip.
        """
        start_us = self.manager.clock.now_us
        with self.manager.wal_group():
            for request in requests:
                self.workload.transaction(self.db, request.session.rng)
        group = [r.session.tenant for r in requests]
        self.dispatch_log.append(group)
        duration_us = self.manager.clock.now_us - start_us
        if self.replica is not None:
            duration_us += self.replica.ship(group)
        return duration_us

    def execute_tenant_group(
        self, tenants: Iterable[int], rngs: dict[int, np.random.Generator]
    ) -> None:
        """Replay one dispatch-log group (serial stream replay path)."""
        with self.manager.wal_group():
            for tenant in tenants:
                self.workload.transaction(self.db, rngs[tenant])

    # ------------------------------------------------------------------ #
    # Determinism contract
    # ------------------------------------------------------------------ #

    def media_digest(self) -> str:
        """SHA-256 over every physical page (data + OOB) of the shard.

        Covers every leaf chip of the data device *and* of the WAL log
        device, chip-major (:func:`repro.flash.media_digest`), through
        the public page accessors only: the digest is a pure function of
        media bytes, so two runs agree iff the devices are
        byte-identical.
        """
        devices = [self.manager.device.chip]
        if self.manager.wal is not None:
            devices.append(self.manager.wal.chip)
        return media_digest(*devices)
