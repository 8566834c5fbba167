"""Configuration for the sharded service tier."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.config import SCHEME_2X4, IpaScheme
from repro.flash.modes import FlashMode
from repro.workloads.base import Workload

ADMISSION_POLICIES = ("shed", "wait")


def _default_workload() -> Workload:
    from repro.workloads.tpcb import TpcbWorkload

    return TpcbWorkload(scale=1, accounts_per_branch=500, history_pages=64)


@dataclass
class ServiceConfig:
    """One run of the sharded front end.

    Attributes:
        workload_factory: Builds one *independent* workload instance per
            shard (workloads carry mutable schema state, so shards must
            not share one object).  Every shard hosts the full schema;
            tenants are routed to shards, not split across them.
        shards: Independent engine + FTL + device stacks.
        sessions: Closed-loop client sessions (tenants).  Each session
            is pinned to ``shard_of(tenant, shards)`` for its lifetime.
        txns_per_session: Transactions each session issues (a shed
            attempt consumes one — the client gave up on that request).
        architecture / mode / scheme / buffer_pages / channels /
            background_gc: Per-shard stack knobs, the fields of the
            :class:`repro.stack.StackSpec` each shard builds.  The WAL is
            always attached — group commit is the point of the tier.
        queue_depth: Admission bound: max requests queued per shard
            (excluding the batch currently executing).
        admission_policy: ``"shed"`` (reject overload; client backs off
            ``shed_backoff_us`` and issues its next request) or
            ``"wait"`` (block until a slot frees; the wait is counted).
        group_commit_size: Max requests drained into one WAL commit
            group per batch.
        think_time_us: Client think time between completion and the next
            request (simulated time).
        shed_backoff_us: Client back-off after a shed before it issues
            its next request.
        scheduling: Must be ``"deterministic"``, the virtual-time event
            loop (byte-identical media for a given seed) and the only
            scheduler.  See ``docs/service.md``.
        replication: Attach one standby stack per shard and stream every
            WAL commit group to it, synchronously (a group's
            transactions complete only at the standby ack).  Off by
            default — the disabled path is byte-identical to a
            replication-free build (digest-gated).  See
            ``docs/replication.md``.
        repl_latency_us: One-way primary→standby transport latency
            (simulated µs); the per-group ack delay is twice this plus
            the standby's apply time.
        observe: Attach the per-shard obs bundle and metrics registry
            (latency histograms, callbacks exporting the counters).  Off =
            NULL registry, near-zero overhead; the counters themselves,
            and so every ``ShardReport``, are the same either way.
        seed: Master seed; shard-build and per-session RNG seeds are all
            derived from it via ``derive_seeds``.
    """

    workload_factory: Callable[[], Workload] = field(default=_default_workload)
    shards: int = 4
    sessions: int = 16
    txns_per_session: int = 50
    architecture: str = "ipa-native"
    mode: FlashMode = FlashMode.SLC
    scheme: IpaScheme = SCHEME_2X4
    buffer_pages: int = 64
    channels: int = 1
    background_gc: bool = False
    queue_depth: int = 8
    admission_policy: str = "shed"
    group_commit_size: int = 4
    think_time_us: float = 100.0
    shed_backoff_us: float = 500.0
    scheduling: str = "deterministic"
    replication: bool = False
    repl_latency_us: float = 50.0
    observe: bool = True
    seed: int = 42

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.sessions < 1:
            raise ValueError("sessions must be >= 1")
        if self.txns_per_session < 1:
            raise ValueError("txns_per_session must be >= 1")
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if self.group_commit_size < 1:
            raise ValueError("group_commit_size must be >= 1")
        if self.admission_policy not in ADMISSION_POLICIES:
            raise ValueError(
                f"admission_policy must be one of {ADMISSION_POLICIES}, "
                f"got {self.admission_policy!r}"
            )
        if self.scheduling != "deterministic":
            raise ValueError(
                "scheduling must be 'deterministic' (threaded scheduling "
                f"was removed), got {self.scheduling!r}"
            )
        if self.repl_latency_us < 0:
            raise ValueError("repl_latency_us must be >= 0")
        # A negative delay would schedule a session's next issue before
        # the completion (or shed) that triggers it.
        if self.think_time_us < 0:
            raise ValueError(
                f"think_time_us must be >= 0, got {self.think_time_us}"
            )
        if self.shed_backoff_us < 0:
            raise ValueError(
                f"shed_backoff_us must be >= 0, got {self.shed_backoff_us}"
            )
