"""Replication: standby identity, lag accounting, digest bugfix coverage.

Three contracts live here (see ``docs/replication.md``):

1. **Replication-off identity** — with ``replication=False`` the service
   tier's per-shard media digests are pinned to the golden values
   captured before the replication seam existed: attaching the feature
   did not perturb the unreplicated write path by a single byte.
2. **Standby identity** — after a crash-free replicated run every
   standby's media digest equals its primary's, and the serial-replay
   contract still holds on the primary.
3. **Digest coverage** — ``media_digest`` hashes *every* underlying
   chip of multi-channel stacks (the PR 9 digest bugfix), in chip-major
   order, and is stable across identical runs at ``channels > 1``.
"""

import pytest

from repro.flash import media_digest
from repro.flash.device import FlashDevice
from repro.flash.geometry import FlashGeometry
from repro.service import (
    ReplicationLink,
    ServiceConfig,
    ShardedService,
    replay_shard_stream,
    run_service,
)
from repro.workloads.tpcb import TpcbWorkload

# --------------------------------------------------------------------- #
# Golden digests of the unreplicated service tier, captured on the PR 8
# tree (commit caa7898) with the exact config below.  If these move, the
# unreplicated write path changed — which this PR must not do.
# --------------------------------------------------------------------- #
GOLDEN_SEED = 20170321
GOLDEN_DIGESTS = [
    "dd2edff0197606cfd00e1c78d9de9a54d86b1edff0530720da9f307d99b26cac",
    "86111823b6e610304f16ad695fea1efd52745eba3803cea95428341549f258bd",
]
GOLDEN_TXNS_COMPLETED = 34


def tiny_workload():
    return TpcbWorkload(scale=1, accounts_per_branch=200, history_pages=32)


def tiny_config(**kwargs):
    defaults = dict(
        workload_factory=tiny_workload,
        shards=2,
        sessions=6,
        txns_per_session=6,
        queue_depth=2,
        group_commit_size=3,
    )
    defaults.update(kwargs)
    return ServiceConfig(**defaults)


class TestReplicationOffIdentity:
    def test_digests_match_pre_replication_goldens(self):
        result = run_service(tiny_config(seed=GOLDEN_SEED))
        assert result.digests() == GOLDEN_DIGESTS
        assert result.txns_completed == GOLDEN_TXNS_COMPLETED

    def test_replica_fields_default_empty(self):
        result = run_service(tiny_config(seed=GOLDEN_SEED))
        for report in result.shard_reports:
            assert report.repl_groups_acked == 0
            assert report.repl_lag_us == 0.0
            assert report.standby_digest == ""


class TestStandbyIdentity:
    def test_standby_digest_equals_primary(self):
        result = run_service(tiny_config(replication=True))
        assert result.txns_completed > 0
        for report in result.shard_reports:
            assert report.standby_digest == report.media_digest

    def test_every_group_acknowledged(self):
        service = ShardedService(tiny_config(replication=True))
        service.run()
        for shard in service.shards:
            link = shard.replica.link
            assert link.groups_acked == len(shard.dispatch_log)
            assert link.groups_shipped == link.groups_acked
            assert link.outstanding == 0

    def test_serial_replay_still_holds_with_replication(self):
        config = tiny_config(replication=True)
        result = run_service(config)
        for report in result.shard_reports:
            digest = replay_shard_stream(
                config, report.index, report.dispatch_log
            )
            assert digest == report.media_digest

    def test_lag_metrics_recorded_on_primary_registry(self):
        service = ShardedService(
            tiny_config(replication=True, repl_latency_us=25.0)
        )
        service.run()
        for shard in service.shards:
            acked = shard.metrics.get("service_repl_groups_acked")
            lag_us = shard.metrics.get("service_repl_lag_us")
            lag_groups = shard.metrics.get("service_repl_lag_groups")
            assert acked.value == len(shard.dispatch_log)
            # Every ack waited at least the 2x transport latency.
            assert lag_us.value >= 50.0 * len(shard.dispatch_log)
            assert lag_groups.value == 0  # caught up at quiesce

    def test_sync_ack_slows_the_client_view(self):
        fast = run_service(tiny_config(replication=False))
        slow = run_service(
            tiny_config(replication=True, repl_latency_us=500.0)
        )
        assert slow.elapsed_us > fast.elapsed_us

    def test_promote_returns_caught_up_shard(self):
        service = ShardedService(tiny_config(replication=True))
        service.run()
        shard = service.shards[0]
        promoted = shard.replica.promote()
        assert promoted.index == shard.index
        assert promoted.media_digest() == shard.media_digest()

    def test_bad_latency_rejected(self):
        with pytest.raises(ValueError):
            ServiceConfig(repl_latency_us=-1.0)
        with pytest.raises(ValueError):
            ReplicationLink(lambda group: 0.0, latency_us=-1.0)


class TestReplicationLink:
    def test_ack_delay_is_round_trip_plus_apply(self):
        link = ReplicationLink(lambda group: 7.0, latency_us=10.0)
        assert link.ship([1, 2]) == pytest.approx(27.0)
        assert link.groups_shipped == 1
        assert link.groups_acked == 1
        assert link.lag_us_total == pytest.approx(27.0)

    def test_ack_follows_the_standby_apply(self):
        # Inside apply_group the group is shipped but not yet acked.
        seen = []

        def apply_group(group):
            seen.append((link.outstanding, link.groups_acked))
            return 1.0

        link = ReplicationLink(apply_group)
        link.ship([0])
        assert seen == [(1, 0)]
        assert (link.groups_acked, link.outstanding) == (1, 0)

    def test_failed_apply_is_not_acked(self):
        def apply_group(group):
            raise RuntimeError("standby lost")

        link = ReplicationLink(apply_group)
        with pytest.raises(RuntimeError):
            link.ship([0])
        assert (link.groups_shipped, link.groups_acked) == (1, 0)

    def test_counters_wired_to_registry(self):
        # The link counts with no registry at all ...
        link = ReplicationLink(lambda group: 1.0, latency_us=2.0)
        link.ship([0])
        link.ship([1])
        assert (link.groups_shipped, link.groups_acked) == (2, 2)
        assert link.lag_us_total == pytest.approx(10.0)
        assert link.outstanding == 0
        # ... and an observed primary's registry reads those same numbers.
        service = ShardedService(tiny_config(replication=True, observe=True))
        service.run()
        for shard in service.shards:
            link = shard.replica.link
            registry = shard.metrics
            assert registry.get("service_repl_groups_shipped").value == (
                link.groups_shipped
            )
            assert registry.get("service_repl_groups_acked").value == (
                link.groups_acked
            )
            assert registry.get("service_repl_lag_us").value == link.lag_us_total
            assert registry.get("service_repl_lag_groups").value == 0


class TestMultiChannelDigest:
    """The PR 9 digest bugfix: every chip of every device is hashed."""

    def test_channels_gt_one_digest_stable(self):
        config = tiny_config(channels=2, sessions=4, txns_per_session=4)
        a, b = run_service(config), run_service(config)
        assert a.digests() == b.digests()

    def test_device_chips_enumerates_every_channel(self):
        geo = FlashGeometry(
            page_size=256, oob_size=16, pages_per_block=8, blocks=8
        )
        device = FlashDevice(geo, channels=2)
        chips = device.chips
        assert len(chips) == 2
        assert sum(c.geometry.total_pages for c in chips) == (
            geo.total_pages
        )
        # Chip-major: the device's digest is its chips' digests' stream.
        assert media_digest(device) == media_digest(*chips)

    def test_digest_sees_writes_on_every_chip(self):
        # Block b stripes to channel b % channels: ppn 8 (block 1) lands
        # on the second chip.  A digest that only hashed chip 0 — the
        # pre-fix failure mode — would not move.
        geo = FlashGeometry(
            page_size=256, oob_size=16, pages_per_block=8, blocks=8
        )
        device = FlashDevice(geo, channels=2)
        chip0, chip1 = device.chips
        before = media_digest(device)
        chip0_before = media_digest(chip0)
        device.program_page(geo.pages_per_block, b"\x5a" * geo.page_size)
        device.quiesce()
        assert media_digest(device) != before
        assert media_digest(chip0) == chip0_before
        assert media_digest(device) == media_digest(chip0, chip1)
        assert bytes(device.page_at(geo.pages_per_block).raw_data()) == (
            b"\x5a" * geo.page_size
        )
        # The written bytes live on the second chip, not the first.
        assert any(
            bytes(chip1.page_at(p).raw_data()) == b"\x5a" * geo.page_size
            for p in range(chip1.geometry.total_pages)
        )
        assert not any(
            bytes(chip0.page_at(p).raw_data()) == b"\x5a" * geo.page_size
            for p in range(chip0.geometry.total_pages)
        )
