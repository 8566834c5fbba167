"""Per-shard WAL-stream replication: primary → standby, ack per group.

The service tier's determinism contract (``docs/service.md``) makes each
shard's dispatch log — the ordered ``wal_group()`` units of tenant
ids — plus the derived session seeds a *complete* description of the
shard's WAL frame stream: replaying the groups serially reproduces the
primary's media bytes exactly.  Replication streams exactly that unit.
After a primary flushes a WAL commit group it ships the group over a
:class:`ReplicationLink`; the standby — a full
independent :class:`~repro.service.shard.Shard` stack built from the
same derived seed — applies it through the existing serial-replay path
(:meth:`~repro.service.shard.Shard.execute_tenant_group`) and
acknowledges.  The primary's group commit completes only at the ack
(synchronous replication), so a transaction acknowledged to a client is
always present on the standby: promotion after a primary crash can
never lose a committed transaction, regardless of crash timing.

The replica write path stays append-only and group-committed end to
end: the standby re-executes the same transactions under the same group
boundaries, so its WAL receives the identical frame stream and its data
device sees the identical eviction/veto schedule — after a crash-free
run the standby's media digest equals the primary's (gated by
``tests/service/test_replication.py``).

Lag accounting (plain counters on :class:`ReplicationLink`,
``ShardReplica.link``):

* ``groups_shipped`` / ``groups_acked`` — groups sent / acknowledged
  (equal after every synchronous ship);
* ``outstanding`` — shipped-but-unacked groups (the replication window;
  non-zero only mid-ship);
* ``lag_us_total`` — cumulative simulated µs between a group's primary
  commit and its standby ack (transport + standby apply).

See ``docs/replication.md`` for the protocol, the promotion procedure
and the digest-identity contract; the crash-time guarantee is enforced
by the failover sweep in :mod:`repro.fault.failover`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:
    from repro.service.config import ServiceConfig
    from repro.service.shard import Shard

__all__ = ["ReplicationLink", "ShardReplica"]


class ReplicationLink:
    """Synchronous per-group replication channel with lag accounting.

    The link is transport-shaped, not service-shaped: it carries opaque
    groups to an ``apply_group`` callable and measures the round trip,
    so the service tier (tenant-id groups onto a standby ``Shard``) and
    the fault harness (update tuples onto a standby engine stack) share
    one implementation.

    Args:
        apply_group: Applies one group on the standby and returns the
            standby-side simulated apply duration in µs.
        latency_us: One-way transport latency (simulated µs); the ack
            delay of a ship is ``2 * latency_us + apply duration``.

    ``groups_shipped`` / ``groups_acked`` / ``lag_us_total`` count on
    every run.
    """

    def __init__(
        self,
        apply_group: Callable[[Sequence], float],
        latency_us: float = 0.0,
    ) -> None:
        if latency_us < 0:
            raise ValueError("latency_us must be >= 0")
        self.apply_group = apply_group
        self.latency_us = latency_us
        self.groups_shipped = 0
        self.groups_acked = 0
        self.lag_us_total = 0.0

    @property
    def outstanding(self) -> int:
        """Groups shipped but not yet acknowledged."""
        return self.groups_shipped - self.groups_acked

    def ship(self, group: Sequence) -> float:
        """Replicate one WAL frame group; return the ack delay in µs.

        The delay — transport out, standby apply, transport back — is
        the time the primary's group commit must wait before the group's
        transactions may be acknowledged to clients (synchronous
        replication).  The caller maps it onto its own timeline.
        """
        self.groups_shipped += 1
        apply_us = self.apply_group(group)
        delay_us = 2.0 * self.latency_us + apply_us
        self.groups_acked += 1
        self.lag_us_total += delay_us
        return delay_us


class ShardReplica:
    """A standby shard stack continuously fed by one primary's WAL stream.

    The standby is a full :class:`~repro.service.shard.Shard` built from
    the *same* derived build seed as its primary (identical schema,
    identical initial media) with its own copies of the per-tenant
    session RNG streams (:func:`~repro.service.service.shard_session_rngs`,
    which :func:`~repro.service.service.replay_shard_stream` uses too),
    applied incrementally instead of after the fact.

    Args:
        config: The live service config (``observe`` is forced off for
            the standby stack; the replication counters live on
            :attr:`link`).
        index: Shard index (must match the primary's).
        build_seed: The primary's derived build seed.
        session_seeds: Derived per-tenant seeds, indexed by tenant id.
    """

    def __init__(
        self,
        config: "ServiceConfig",
        index: int,
        build_seed: int,
        session_seeds: Sequence[int],
    ) -> None:
        from repro.service.service import shard_session_rngs
        from repro.service.shard import Shard

        self.index = index
        self.standby: "Shard" = Shard(
            index, replace(config, observe=False), build_seed
        )
        self._rngs = shard_session_rngs(config, index, session_seeds)
        self.link = ReplicationLink(
            self._apply, latency_us=config.repl_latency_us
        )

    def _apply(self, group: Sequence[int]) -> float:
        """Apply one tenant group on the standby; return its duration (µs)."""
        clock = self.standby.manager.clock
        start_us = clock.now_us
        self.standby.execute_tenant_group(group, self._rngs)
        return clock.now_us - start_us

    def ship(self, group: Sequence[int]) -> float:
        """Forward one dispatch-log group; return the ack delay in µs."""
        return self.link.ship(group)

    def media_digest(self) -> str:
        """The standby's media digest (equals the primary's when caught up)."""
        return self.standby.media_digest()

    def promote(self) -> "Shard":
        """Fail over: the standby becomes the serving primary.

        The standby's state is exactly the acknowledged group prefix of
        the primary's dispatch log, so promotion after a primary loss
        retains every transaction ever acknowledged to a client.  The
        returned shard is ready to execute batches; the caller owns
        rerouting traffic to it.
        """
        return self.standby
