"""SimClock categories, latency model, stats snapshot/diff machinery."""

from dataclasses import MISSING, fields

import pytest

from repro.baselines.ipl import IplConfig, IplStore
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.flash.latency import HostCostModel, LatencyModel, SimClock
from repro.engine.transaction import TransactionStats
from repro.engine.wal import WalStats
from repro.flash.stats import DeviceStats, FlashStats
from repro.ftl.noftl import NoFtlDevice
from repro.storage.buffer import BufferStats
from repro.storage.manager import ManagerStats

GEO = FlashGeometry(page_size=512, oob_size=64, pages_per_block=8, blocks=8)


class TestSimClock:
    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(5.0)
        clock.advance(2.5)
        assert clock.now_us == 7.5
        assert clock.now_s == pytest.approx(7.5e-6)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1)

    @pytest.mark.parametrize("micros", [float("nan"), float("inf"), -0.5])
    def test_non_finite_or_negative_rejected(self, micros):
        clock = SimClock()
        clock.advance(3.0, "host")
        with pytest.raises(ValueError, match="finite and >= 0"):
            clock.advance(micros, "host")
        assert clock.now_us == 3.0 and clock.breakdown_us == {"host": 3.0}

    def test_categories(self):
        clock = SimClock()
        clock.advance(10, "read")
        clock.advance(5, "read")
        clock.advance(3, "erase")
        assert clock.breakdown_us == {"read": 15, "erase": 3}
        assert clock.now_us == 18

    def test_reset_clears_breakdown(self):
        clock = SimClock()
        clock.advance(10, "read")
        clock.reset()
        assert clock.now_us == 0
        assert clock.breakdown_us == {}

    def test_breakdown_sums_to_total(self):
        chip = FlashChip(GEO)
        chip.program_page(0, b"x" * 100)
        chip.read_page(0)
        chip.erase_block(0)
        total = sum(chip.clock.breakdown_us.values())
        assert total == pytest.approx(chip.clock.now_us)
        assert set(chip.clock.breakdown_us) >= {"read", "program", "erase", "bus"}


class TestLatencyModel:
    def test_transfer_scales_with_bytes(self):
        model = LatencyModel()
        assert model.transfer_us(1000) == pytest.approx(
            1000 * model.bus_us_per_byte
        )

    def test_defaults_ordered(self):
        model = LatencyModel()
        assert model.read_us < model.program_lsb_us
        assert model.program_lsb_us < model.program_msb_us
        assert model.program_msb_us < model.erase_us

    def test_host_cost_model_defaults(self):
        costs = HostCostModel()
        assert costs.per_transaction_us > costs.per_buffer_hit_us
        assert costs.ipa_tracking_us < 1.0  # "min. computational overhead"


_BAD_COSTS = [float("nan"), float("inf"), -1.0]


class TestCostModelsValidate:
    @pytest.mark.parametrize("model", [HostCostModel, LatencyModel])
    def test_every_field_checked(self, model):
        for field in fields(model):
            for value in _BAD_COSTS:
                with pytest.raises(ValueError) as error:
                    model(**{field.name: value})
                assert f"{model.__name__}.{field.name}" in str(error.value)
                assert repr(value) in str(error.value)

    @pytest.mark.parametrize("model", [HostCostModel, LatencyModel])
    def test_zero_and_defaults_accepted(self, model):
        model()
        model(**{field.name: 0.0 for field in fields(model)})

    def test_nan_cost_cannot_reach_the_clock(self):
        """At the parent, a NaN per-transaction cost made every simulated
        time and TPS NaN without an error."""
        with pytest.raises(ValueError, match="per_transaction_us"):
            HostCostModel(per_transaction_us=float("nan"))

    def test_host_costs_are_frozen(self):
        costs = HostCostModel()
        with pytest.raises(AttributeError):
            costs.ipa_tracking_us = -1.0


class TestStats:
    def test_flash_snapshot_diff(self):
        stats = FlashStats(page_reads=10, block_erases=2)
        before = stats.snapshot()
        stats.page_reads += 5
        stats.block_erases += 1
        diff = stats.diff(before)
        assert diff.page_reads == 5
        assert diff.block_erases == 1
        assert before.page_reads == 10  # snapshot is independent

    def test_device_snapshot_diff_extra(self):
        """Every field of every stats block is an interval counter.

        Includes the backend-specific counters (merges / log_page_reads /
        wear moves / background GC ...) that were once extra keys in an
        untyped dict, and the container fields: a list's interval is the
        entries appended since the snapshot, a dict's is each key's
        interval (a new key counts from empty).  A snapshot is an
        independent copy, containers included.
        """
        for cls in (
            DeviceStats, FlashStats, ManagerStats, BufferStats,
            TransactionStats, WalStats,
        ):
            self._check_snapshot_diff(cls)

    @staticmethod
    def _check_snapshot_diff(cls):
        numbers = [f.name for f in fields(cls) if f.default_factory is MISSING]
        lists = [f.name for f in fields(cls) if f.default_factory is list]
        dicts = [f.name for f in fields(cls) if f.default_factory is dict]
        assert len(numbers) + len(lists) + len(dicts) == len(fields(cls))
        stats = cls(
            **{name: i + 1 for i, name in enumerate(numbers)},
            **{name: [1, 2] for name in lists},
            **{name: {"n": 1, "l": [1], "gone": 3} for name in dicts},
        )
        before = stats.snapshot()
        for i, name in enumerate(numbers):
            setattr(stats, name, getattr(stats, name) + 10 * (i + 1))
        for name in lists:
            getattr(stats, name).extend([3, 4])
        for name in dicts:
            counters = getattr(stats, name)
            counters["n"] += 5
            counters["l"].append(7)
            counters["new"] = [8]
            del counters["gone"]
        diff = stats.diff(before)
        assert [getattr(diff, n) for n in numbers] == [
            10 * (i + 1) for i in range(len(numbers))
        ], cls
        assert all(getattr(diff, n) == [3, 4] for n in lists), cls
        assert all(
            getattr(diff, n) == {"n": 5, "l": [7], "new": [8]} for n in dicts
        ), cls
        # The snapshot is independent.
        assert [getattr(before, n) for n in numbers] == list(
            range(1, len(numbers) + 1)
        ), cls
        assert all(getattr(before, n) == [1, 2] for n in lists), cls
        assert all(
            getattr(before, n) == {"n": 1, "l": [1], "gone": 3} for n in dicts
        ), cls

    def test_device_diff_subtracts_numeric_extra(self):
        """Regression: interval diffs subtract the backend counters too.

        ``diff`` once copied the extra counters cumulatively, so every
        interval after the first over-reported merges / log_page_reads /
        wear moves. Checked on counters produced by a live IPL store and
        summed by a two-region NoFTL aggregate.
        """
        store = IplStore(
            FlashChip(GEO), IplConfig(log_pages_per_block=1, sector_size=128)
        )
        store.first_write(0, b"\x00" * GEO.page_size)
        for i in range(40):
            store.log_update(0, [(i % 64, i)])
        store.flush_log_for(0)
        before = store.stats.snapshot()
        for i in range(40, 80):
            store.log_update(0, [(i % 64, i)])
        store.flush_log_for(0)
        store.read_page(0)
        diff = store.stats.diff(before)
        assert diff.merges >= 1
        assert diff.log_sector_flushes >= 1
        assert diff.log_page_reads >= 1
        assert diff.merges == store.stats.merges - before.merges

        device = NoFtlDevice(FlashChip(GEO))
        a = device.create_region("a", blocks=4)
        b = device.create_region("b", blocks=4)
        names = [f.name for f in fields(DeviceStats)]
        for i, name in enumerate(names):
            setattr(a.stats, name, i + 1)
            setattr(b.stats, name, 100 * (i + 1))
        total = device.stats
        assert [getattr(total, n) for n in names] == [
            101 * (i + 1) for i in range(len(names))
        ]
        b.stats.merges += 5
        assert device.stats.diff(total).merges == 5

    def test_device_ratios_guard_zero(self):
        stats = DeviceStats()
        assert stats.migrations_per_host_write == 0.0
        assert stats.erases_per_host_write == 0.0

    def test_total_host_write_ops_includes_deltas(self):
        stats = DeviceStats(host_writes=10, host_delta_writes=5)
        assert stats.total_host_write_ops == 15
