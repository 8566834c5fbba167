"""Regression: crash recovery with a multi-channel WAL device.

PR 9 fixed two coupled crash-model bugs that only bite when the WAL
lives on a multi-channel :class:`~repro.flash.device.FlashDevice`:

1. ``run_crash_point`` reverted in-flight channel ops only on the data
   chip; a crash left the WAL device's in-flight queue un-torn, so the
   post-crash media could contain pulses that never completed.
2. Acknowledged WAL appends returned while their array pulses were
   still in flight on the channel queues; a power loss then *reverted*
   frames the engine had already treated as durable.  The fix is the
   ``FlashDevice.sync()`` flush barrier the WAL takes after every
   append and truncate-erase.

The sweep below runs the full differential crash harness with
``wal_channels > 1`` and must hold the same recovered-prefix bound as
the single-chip configuration.  The barrier tests pin that
``commit()`` and ``truncate()`` return with every channel queue empty,
and that the bound *breaks* when ``sync`` is neutered: the barrier (not
luck) carries the durability contract.
"""

import pytest

from repro.fault import fault_spec, run_crash_point, run_sweep
from repro.fault.harness import FAULT_SPEC
from repro.flash.chip import FlashChip
from repro.flash.device import FlashDevice


class TestWalDeviceConstruction:
    def test_default_wal_is_a_bare_chip(self):
        _db, manager = fault_spec("ipa-native").build()
        assert isinstance(manager.wal.chip, FlashChip)

    def test_wal_channels_builds_a_striped_device(self):
        _db, manager = fault_spec("ipa-native", wal_channels=2).build()
        wal = manager.wal.chip
        assert isinstance(wal, FlashDevice)
        assert wal.channels == 2
        assert wal.geometry.total_pages == FAULT_SPEC.wal_geometry.total_pages


class TestMultiChannelWalRecovery:
    @pytest.mark.parametrize("wal_channels", [2, 4])
    def test_sweep_holds_recovered_prefix_bound(self, wal_channels):
        backend = fault_spec("ipa-native", wal_channels=wal_channels)
        result = run_sweep(backend, 8)
        assert result.ok, "\n".join(
            f"point={f.crash_point} op='{f.crash_op}' "
            f"completed={f.completed} durable={f.durable_frames}: {f.detail}"
            for f in result.failures[:10]
        )

    def test_crash_point_deterministic_at_channels_2(self):
        backend = fault_spec("ipa-blockdev", wal_channels=2)
        a = run_crash_point(backend, 41, seed=13)
        b = run_crash_point(backend, 41, seed=13)
        assert a == b
        assert a.ok, a.detail


class TestSyncBarrierIsLoadBearing:
    def test_commit_and_truncate_return_with_empty_channel_queues(self):
        # The barrier itself: an acknowledged append or checkpoint leaves
        # no pulse in flight on any channel of the log device.
        _db, manager = fault_spec("ipa-native", wal_channels=2).build()
        wal, device = manager.wal, manager.wal.chip

        def depths():
            return [device.queue_depth_of(i) for i in range(device.channels)]

        wal.log_format(lsn=1, lba=0, file_id=0)
        wal.commit()
        assert depths() == [0, 0]
        wal.truncate()
        assert depths() == [0, 0]

    def test_neutered_barrier_returns_with_pulses_in_flight(self, monkeypatch):
        # The same calls with sync() a no-op: commit() and truncate()
        # return while their pulses still sit on the channel queues, so
        # the empty-queue check above is not vacuous.
        monkeypatch.setattr(FlashDevice, "sync", lambda self: None)
        _db, manager = fault_spec("ipa-native", wal_channels=2).build()
        wal, device = manager.wal, manager.wal.chip

        def depths():
            return [device.queue_depth_of(i) for i in range(device.channels)]

        wal.log_format(lsn=1, lba=0, file_id=0)
        wal.commit()
        assert sum(depths()) > 0
        wal.truncate()
        assert sum(depths()) > 0

    def test_unsynced_wal_device_loses_acked_commits(self, monkeypatch):
        # Neuter the flush barrier: acked appends may still be in flight
        # on the channel queues when power is lost, so the durable frame
        # count can fall below the completed-transaction count — the
        # exact failure mode sync() exists to prevent.  If this test
        # ever starts passing with the barrier off, the crash model got
        # weaker; investigate before deleting it.
        monkeypatch.setattr(FlashDevice, "sync", lambda self: None)
        backend = fault_spec("ipa-native", wal_channels=2)
        failures = []
        for point in range(10, 90, 4):
            outcome = run_crash_point(backend, point, seed=0xBA88 ^ point)
            if not outcome.ok:
                failures.append(outcome)
        assert failures, (
            "every crash point recovered with the WAL flush barrier "
            "disabled; the barrier should be load-bearing"
        )
        assert any(
            "durable frame count" in f.detail for f in failures
        ), [f.detail for f in failures[:5]]
