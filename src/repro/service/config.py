"""Configuration for the sharded service tier."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.workloads.base import Workload

ADMISSION_POLICIES = ("shed", "wait")

#: Client back-off after a shed before it issues its next request
#: (simulated µs).
SHED_BACKOFF_US = 500.0


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
        buffer_pages / channels: Per-shard stack knobs, the fields of
            the :class:`repro.stack.StackSpec` each shard builds.  The
            rest of that stack is fixed: ``ipa-native`` with the [2x4]
            scheme on SLC, foreground GC, and a WAL always attached —
            group commit is the point of the tier.
        queue_depth: Admission bound: max requests queued per shard
            (excluding the batch currently executing).
        admission_policy: ``"shed"`` (reject overload; client backs off
            :data:`SHED_BACKOFF_US` and issues its next request) or
            ``"wait"`` (block until a slot frees; the wait is counted).
        group_commit_size: Max requests drained into one WAL commit
            group per batch.
        think_time_us: Client think time between completion and the next
            request (simulated time).
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
        observe: Attach a :class:`~repro.obs.Observation` to each
            shard (``Shard.observation``: span tracer, write ledger,
            sampler).  Off = the null observers, near-zero overhead; the
            counters live on their owners (``Shard``,
            ``AdmissionController``, ``ReplicationLink``), so every
            ``ShardReport`` is the same either way.
        seed: Master seed; shard-build and per-session RNG seeds are all
            derived from it via ``derive_seeds``.
    """

    workload_factory: Callable[[], Workload] = field(default=_default_workload)
    shards: int = 4
    sessions: int = 16
    txns_per_session: int = 50
    buffer_pages: int = 64
    channels: int = 1
    queue_depth: int = 8
    admission_policy: str = "shed"
    group_commit_size: int = 4
    think_time_us: float = 100.0
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
        # the completion that triggers it.
        if self.think_time_us < 0:
            raise ValueError(
                f"think_time_us must be >= 0, got {self.think_time_us}"
            )
