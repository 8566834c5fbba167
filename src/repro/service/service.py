"""The sharded service front end: scheduling, overload, determinism.

One scheduler drives every policy decision (routing, admission,
batching, group commit): a virtual-time discrete-event loop.  Global
time is a float; batches execute on the shard's simulated clock and the
measured duration is mapped back onto virtual time.  Events are ordered
by ``(time, insertion seq)``, so a run is a pure function of the config
— same seed, byte-identical per-shard media.  Simulated I/O completes
synchronously, so there is nothing for threads to overlap.

The determinism contract (checked by ``tests/service`` and the
``service-smoke`` CI job): two deterministic runs with the same config
produce identical per-shard :meth:`~repro.service.shard.Shard.media_digest`
values, and each equals the digest of replaying that shard's extracted
dispatch log serially via :func:`replay_shard_stream`.  The dispatch log
(ordered groups of tenant ids per shard) plus the derived session seeds
are therefore a complete description of a shard's WAL frame stream —
the seam :mod:`repro.service.replication` streams over: with
``config.replication`` on, every shard ships each committed group to a
standby stack and completes it only at the standby's ack, so promotion
after a primary loss retains every acknowledged transaction (see
``docs/replication.md`` and the failover sweep in
:mod:`repro.fault.failover`).
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Sequence, Tuple

import numpy as np

from repro.service.admission import AdmissionDecision
from repro.service.config import SHED_BACKOFF_US, ServiceConfig
from repro.service.router import shard_of
from repro.service.session import Request, Session
from repro.service.shard import Shard
from repro.workloads.base import derive_seeds

__all__ = [
    "ServiceResult",
    "ShardReport",
    "ShardedService",
    "replay_shard_stream",
    "run_service",
]

_ISSUE = 0
_DRAIN = 1


def _derived_seeds(config: ServiceConfig) -> Tuple[List[int], List[int]]:
    """(shard build seeds, session seeds) — one derivation, both paths.

    The live service and :func:`replay_shard_stream` must call this same
    function: the digest contract holds only if replay rebuilds the
    shard and re-derives the session RNG streams from identical seeds.
    """
    seeds = derive_seeds(config.seed, config.shards + config.sessions)
    return seeds[: config.shards], seeds[config.shards :]


def shard_session_rngs(
    config: ServiceConfig, shard_index: int, session_seeds: Sequence[int]
) -> Dict[int, np.random.Generator]:
    """Fresh RNG streams of the sessions routed to ``shard_index``.

    A standby (:class:`~repro.service.replication.ShardReplica`) and
    :func:`replay_shard_stream` both draw from these, and both must
    match the live sessions' streams for the digest contract to hold.
    """
    return {
        tenant: np.random.default_rng(session_seeds[tenant])
        for tenant in range(config.sessions)
        if shard_of(tenant, config.shards) == shard_index
    }


def _percentile(values: Sequence[float], q: float) -> float:
    """Exact nearest-rank percentile (0.0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


@dataclass
class ShardReport:
    """Per-shard outcome: throughput, SLO latencies, overload counters."""

    index: int
    sessions: int
    txns_completed: int
    txns_shed: int
    group_commits: int
    admission_waits: int
    admission_wait_us: float
    p50_us: float
    p99_us: float
    sim_elapsed_us: float
    media_digest: str
    dispatch_log: List[List[int]] = field(repr=False)
    #: Replication (empty/zero when ``config.replication`` is off).
    repl_groups_acked: int = 0
    repl_lag_us: float = 0.0
    standby_digest: str = ""


@dataclass
class ServiceResult:
    """Outcome of one service run (see :func:`run_service`)."""

    shards: int
    sessions: int
    seed: int
    elapsed_us: float
    txns_completed: int
    txns_shed: int
    tps: float
    shard_reports: List[ShardReport]

    def digests(self) -> List[str]:
        """Per-shard media digests, in shard order."""
        return [report.media_digest for report in self.shard_reports]


class ShardedService:
    """Build the shard fleet and the session population, then run."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        shard_seeds, session_seeds = _derived_seeds(config)
        self.shards = [
            Shard(i, config, shard_seeds[i]) for i in range(config.shards)
        ]
        if config.replication:
            from repro.service.replication import ShardReplica

            for shard in self.shards:
                shard.attach_replica(
                    ShardReplica(
                        config,
                        shard.index,
                        shard_seeds[shard.index],
                        session_seeds,
                    )
                )
        self.sessions = [
            Session(
                tenant=tenant,
                shard=shard_of(tenant, config.shards),
                rng=np.random.default_rng(session_seeds[tenant]),
                remaining=config.txns_per_session,
            )
            for tenant in range(config.sessions)
        ]

    # ------------------------------------------------------------------ #
    # Entry point
    # ------------------------------------------------------------------ #

    def run(self) -> ServiceResult:
        return self._result(self._run_deterministic())

    # ------------------------------------------------------------------ #
    # Virtual-time discrete-event loop
    # ------------------------------------------------------------------ #

    def _run_deterministic(self) -> float:
        config = self.config
        heap: List[Tuple[float, int, int, object]] = []
        seq = 0

        def push(t_us: float, kind: int, payload: object) -> None:
            nonlocal seq
            heapq.heappush(heap, (t_us, seq, kind, payload))
            seq += 1

        # Parked sessions per shard (wait policy): (session, first attempt).
        waiters: Dict[int, Deque[Tuple[Session, float]]] = {
            shard.index: deque() for shard in self.shards
        }
        for session in self.sessions:
            push(0.0, _ISSUE, (session, 0.0))
        last_completion_us = 0.0

        while heap:
            t_us, _, kind, payload = heapq.heappop(heap)
            if kind == _ISSUE:
                session, first_us = payload  # type: ignore[misc]
                shard = self.shards[session.shard]
                request = Request(session, issue_us=first_us)
                decision = shard.admission.offer(request)
                if decision is AdmissionDecision.ADMITTED:
                    push(max(t_us, shard.busy_until_us), _DRAIN, shard.index)
                elif decision is AdmissionDecision.SHED:
                    session.shed += 1
                    session.remaining -= 1
                    if session.remaining > 0:
                        next_us = t_us + SHED_BACKOFF_US
                        push(next_us, _ISSUE, (session, next_us))
                else:  # WAIT: park until a drain frees a slot
                    waiters[shard.index].append((session, t_us))
                continue

            shard_index: int = payload  # type: ignore[assignment]
            shard = self.shards[shard_index]
            if t_us < shard.busy_until_us:
                # Stale: a batch ran after this drain was scheduled.  If
                # work remains, that batch already scheduled a fresh
                # drain at its completion time.
                continue
            batch = shard.admission.take(config.group_commit_size)
            if not batch:
                continue
            # Queue slots freed at batch start: parked sessions enter
            # the queue now and will ride the *next* drain.
            parked = waiters[shard_index]
            while parked and shard.admission.has_room():
                waiter, first_us = parked.popleft()
                shard.admission.admit(
                    Request(waiter, issue_us=first_us),
                    waited_us=t_us - first_us,
                )
            # The one clock crossing: a shard's clock yields only a
            # duration, which lands on the global axis at t_us.
            duration_us = shard.execute_batch(batch)
            end_us = t_us + duration_us
            shard.busy_until_us = end_us
            last_completion_us = max(last_completion_us, end_us)
            for request in batch:
                shard.latencies_us.append(end_us - request.issue_us)
                session = request.session
                session.completed += 1
                session.remaining -= 1
                if session.remaining > 0:
                    next_us = end_us + config.think_time_us
                    push(next_us, _ISSUE, (session, next_us))
            if len(shard.admission):
                push(end_us, _DRAIN, shard_index)
        return last_completion_us

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #

    def _result(self, elapsed_us: float) -> ServiceResult:
        reports: List[ShardReport] = []
        total_completed = 0
        total_shed = 0
        for shard in self.shards:
            completed = sum(
                s.completed for s in self.sessions if s.shard == shard.index
            )
            shed = sum(s.shed for s in self.sessions if s.shard == shard.index)
            total_completed += completed
            total_shed += shed
            reports.append(
                ShardReport(
                    index=shard.index,
                    sessions=sum(
                        1 for s in self.sessions if s.shard == shard.index
                    ),
                    txns_completed=completed,
                    txns_shed=shed,
                    group_commits=shard.group_commits,
                    admission_waits=shard.admission.waits,
                    admission_wait_us=shard.admission.wait_us,
                    p50_us=_percentile(shard.latencies_us, 0.50),
                    p99_us=_percentile(shard.latencies_us, 0.99),
                    sim_elapsed_us=shard.manager.clock.now_us,
                    media_digest=shard.media_digest(),
                    dispatch_log=[list(g) for g in shard.dispatch_log],
                    repl_groups_acked=(
                        shard.replica.link.groups_acked if shard.replica else 0
                    ),
                    repl_lag_us=(
                        shard.replica.link.lag_us_total if shard.replica else 0.0
                    ),
                    standby_digest=(
                        shard.replica.media_digest() if shard.replica else ""
                    ),
                )
            )
        tps = total_completed / (elapsed_us / 1e6) if elapsed_us > 0 else 0.0
        return ServiceResult(
            shards=self.config.shards,
            sessions=self.config.sessions,
            seed=self.config.seed,
            elapsed_us=elapsed_us,
            txns_completed=total_completed,
            txns_shed=total_shed,
            tps=tps,
            shard_reports=reports,
        )


def run_service(config: ServiceConfig) -> ServiceResult:
    """Build the fleet, run the configured session population, report."""
    return ShardedService(config).run()


def replay_shard_stream(
    config: ServiceConfig, shard_index: int, dispatch_log: Sequence[Sequence[int]]
) -> str:
    """Serially replay one shard's dispatch log; return its media digest.

    Rebuilds the shard from the same derived seed, re-derives every
    session RNG, and executes the logged tenant groups in order — each
    group under one WAL commit group, exactly as the live service did.
    Group boundaries matter: the no-steal LBA set is held across a
    group, so batching changes eviction-veto decisions and therefore
    media bytes.  Replaying the log ungrouped would NOT reproduce the
    digest, which is precisely why the log records groups.
    """
    if not 0 <= shard_index < config.shards:
        raise ValueError(f"shard_index {shard_index} out of range")
    shard_seeds, session_seeds = _derived_seeds(config)
    shard = Shard(shard_index, config, shard_seeds[shard_index])
    rngs = shard_session_rngs(config, shard_index, session_seeds)
    for group in dispatch_log:
        shard.execute_tenant_group(group, rngs)
    return shard.media_digest()
