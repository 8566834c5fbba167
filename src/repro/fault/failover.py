"""Primary-failover checker: kill a replicated primary, promote, verify.

The experiment extends the PR 3 differential crash cycle
(:mod:`repro.fault.harness`) with a standby stack fed through the
service tier's :class:`~repro.service.replication.ReplicationLink`:

1. **Primary + standby** — two byte-identical stacks built from the
   same seeds (the standby is what
   :mod:`repro.service.replication` calls a replica: same schema, same
   checkpointed media).
2. **Replicated traffic** — the update plan runs on the primary in WAL
   commit groups (``with manager.wal_group()``); after each
   group flushes it is shipped over the link and re-executed on the
   standby under the same group boundaries.  A group's transactions
   count as *committed* only once the standby acknowledged — the
   synchronous-replication window the service tier enforces.
3. **Kill** — a :class:`~repro.fault.injector.FaultInjector` armed at a
   seeded op count tears the primary mid-traffic; in-flight channel ops
   are reverted on *all* of the primary's chips (data and WAL devices).
   The primary's media is then abandoned — this is a fail-over, not a
   remount.
4. **Promote** — the standby is promoted the hard way: the crash
   harness's :func:`~repro.fault.harness.remount` mounts an entirely
   fresh stack over its surviving media and replays its log.  Promotion
   must not depend on the standby's volatile Python state being intact.
5. **Differential check** — the promoted stack's table contents must
   equal the shadow oracle replayed to exactly the committed
   (acknowledged) transaction count, and the standby's durable frame
   count must equal that count: no acknowledged transaction lost, no
   unacknowledged transaction resurrected, regardless of crash timing.

:func:`run_replication_free_digest` runs the same grouped driver with no
link attached; its primary media digest must be byte-identical to the
replicated run's primary (replication never touches the primary's
chips) — the digest-identity contract of ``docs/replication.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fault.harness import (
    FaultStack,
    SweepResult,
    divergence,
    extract_state,
    fault_spec,
    make_plan,
    remount,
    shadow_state,
    sweep,
)
from repro.fault.injector import FaultInjector
from repro.flash import media_digest
from repro.service.replication import ReplicationLink
from repro.stack import StackSpec

__all__ = [
    "FailoverOutcome",
    "run_failover_point",
    "run_failover_sweep",
    "run_replicated_digests",
    "run_replication_free_digest",
]

#: Transactions per WAL commit group (mirrors the service tier's
#: ``group_commit_size`` default).
GROUP_SIZE = 4


@dataclass
class FailoverOutcome:
    """Result of one failover point, with everything needed to replay it."""

    backend: str
    crash_point: int
    committed: int
    standby_durable: int
    crash_op: str
    records_applied: int
    torn_repairs: int
    groups_acked: int
    ok: bool
    detail: str = ""


def run_failover_point(
    spec: StackSpec,
    crash_point: int,
    seed: int,
    group_size: int = GROUP_SIZE,
    latency_us: float = 50.0,
) -> FailoverOutcome:
    """One full kill / promote / verify cycle at a given primary op count."""
    plan = make_plan()
    primary = FaultStack(spec)
    standby = FaultStack(spec)
    link = ReplicationLink(standby.apply_group, latency_us=latency_us)
    injector = FaultInjector(crash_after_ops=crash_point, seed=seed)
    primary.run_armed(injector, lambda: primary.run_groups(plan, group_size, link))
    # Acknowledged to clients only once durable on the primary AND
    # applied on the standby.
    committed = primary.acked

    # Promote: brand-new Python objects over the *standby's* media; the
    # primary's chips are dead and never consulted again.
    promoted, standby_durable, applied = remount(
        spec, standby.data, standby.wal
    )
    recovered = extract_state(promoted)
    expected = shadow_state(plan, committed)
    detail = ""
    if standby_durable != committed:
        detail = (
            f"standby durable frame count {standby_durable} != "
            f"acknowledged transaction count {committed}"
        )
    elif recovered != expected:
        detail = divergence(recovered, expected, "promoted", "acknowledged")
    return FailoverOutcome(
        backend=spec.architecture,
        crash_point=crash_point,
        committed=committed,
        standby_durable=standby_durable,
        crash_op=injector.crash_op or "<none>",
        records_applied=applied,
        torn_repairs=promoted.stats.torn_repairs,
        groups_acked=link.groups_acked,
        ok=not detail,
        detail=detail,
    )


def run_replication_free_digest(
    spec: StackSpec, group_size: int = GROUP_SIZE
) -> str:
    """Primary media digest of a crash-free *unreplicated* grouped run."""
    primary = FaultStack(spec)
    primary.run_groups(make_plan(), group_size)
    return media_digest(primary.data, primary.wal)


def run_replicated_digests(
    spec: StackSpec,
    group_size: int = GROUP_SIZE,
    latency_us: float = 50.0,
) -> tuple[str, str]:
    """(primary, standby) media digests of a crash-free replicated run.

    The two must be equal to each other — the standby applied the full
    stream — and the primary digest must equal
    :func:`run_replication_free_digest`: replication observes the
    primary's WAL stream without perturbing its media.
    """
    primary = FaultStack(spec)
    standby = FaultStack(spec)
    link = ReplicationLink(standby.apply_group, latency_us=latency_us)
    primary.run_groups(make_plan(), group_size, link)
    return (
        media_digest(primary.data, primary.wal),
        media_digest(standby.data, standby.wal),
    )


def run_failover_sweep(
    backend: str | StackSpec,
    n_points: int,
    seed: int = 0xFA110,
    jobs: int = 1,
) -> SweepResult:
    """Seeded random failover-point sweep over one backend.

    The op-count budget is measured by a crash-free grouped probe run
    (replication does not add primary flash ops, so no link is needed);
    the points are drawn by :func:`~repro.fault.harness.sweep`.
    """
    spec = fault_spec(backend) if isinstance(backend, str) else backend
    probe = FaultStack(spec)
    counter = FaultInjector(crash_after_ops=None)
    plan = make_plan()
    probe.run_armed(counter, lambda: probe.run_groups(plan, GROUP_SIZE))
    return sweep(
        run_failover_point, spec, counter.ops_seen, n_points, seed, jobs,
        "failover",
    )
