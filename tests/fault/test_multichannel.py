"""Crash-recovery sweeps against the multi-channel device.

The single-channel sweeps in ``test_sweep.py`` gate the core recovery
logic; these repeat the differential cycle on a 4-channel
:class:`~repro.flash.device.FlashDevice` with the background collector
enabled — the configuration where a crash tears *several* in-flight
array operations at once (per-channel revert + re-tear) and where a
background-GC erase may be outstanding at the crash instant (the erase
barrier is what keeps the migrated data safe).
"""

import os

import pytest

from repro.fault import FaultBackend, run_crash_point, run_sweep
from repro.fault.harness import BACKENDS, FaultStack, make_plan
from repro.fault.injector import FaultInjector

POINTS = int(os.environ.get("FAULT_SWEEP_POINTS", "6"))


def _fail_report(result) -> str:
    lines = [
        f"{result.backend}: {len(result.failures)}/{result.points} crash "
        f"points failed recovery (ops_total={result.ops_total})"
    ]
    lines += [
        f"  point={f.crash_point} op='{f.crash_op}' completed={f.completed} "
        f"durable={f.durable_frames}: {f.detail}"
        for f in result.failures[:10]
    ]
    return "\n".join(lines)


class TestMultiChannelSweep:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_four_channels_with_background_gc_recover(self, backend):
        config = FaultBackend(backend, channels=4, background_gc=True)
        result = run_sweep(config, POINTS)
        assert result.ok, _fail_report(result)
        assert result.points == min(POINTS, result.ops_total)

    def test_two_channels_without_background_gc_recover(self):
        config = FaultBackend("noftl-ipa", channels=2)
        result = run_sweep(config, POINTS)
        assert result.ok, _fail_report(result)

    def test_multichannel_crash_point_is_deterministic(self):
        config = FaultBackend("ipa-ftl", channels=4, background_gc=True)
        a = run_crash_point(config, 23, seed=13)
        b = run_crash_point(config, 23, seed=13)
        assert a == b
        assert a.ok, a.detail


class TestRunArmed:
    """``FaultStack.run_armed`` tears what is in flight; it never drains.

    ``quiesce()`` completes every queued channel op, so calling it before
    ``power_loss()`` (or anywhere in the crash handler) would leave the
    crash nothing to tear and the sweep would report recoveries from
    schedules that never happened.
    """

    def test_power_loss_reaches_both_devices_and_nothing_quiesces(self):
        stack = FaultStack(FaultBackend("ipa-ftl", channels=4, wal_channels=4))
        power_losses, quiesces = [], []
        for label, device in (("data", stack.data), ("wal", stack.wal)):
            power_loss = device.power_loss

            def record(label=label, power_loss=power_loss):
                power_losses.append(label)
                power_loss()

            def refuse(label=label):
                quiesces.append(label)
                raise AssertionError(f"{label} device quiesced at the crash")

            device.power_loss = record
            device.quiesce = refuse
        plan = make_plan()
        injector = FaultInjector(crash_after_ops=40, seed=1)
        stack.run_armed(injector, lambda: stack.run_updates(plan))
        assert injector.tripped
        assert 0 < stack.db.txn_stats.by_type.get("bump", 0) < len(plan)
        assert power_losses == ["data", "wal"]
        assert quiesces == []
