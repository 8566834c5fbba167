"""The one backend-name -> stack map: what each name builds, what it refuses."""

from __future__ import annotations

import pytest

from repro.bench.harness import ExperimentConfig, build_stack
from repro.core.config import IPA_DISABLED, SCHEME_2X4
from repro.fault.harness import FaultStack, fault_spec
from repro.flash.chip import FlashChip
from repro.ftl.noftl import NoFtlDevice
from repro.stack import BACKENDS, MOUNTABLE, StackSpec
from repro.workloads.tpcb import TpcbWorkload


def _geometry(geometry):
    return (
        geometry.page_size,
        geometry.oob_size,
        geometry.pages_per_block,
        geometry.blocks,
    )


def _row(manager) -> tuple:
    """Everything the backend name decided about a built stack."""
    device = manager.device
    regions = None
    if isinstance(device, NoFtlDevice):
        regions = [
            (
                (r.ipa.n_records, r.ipa.m_bytes) if r.ipa else None,
                r.logical_pages,
            )
            for r in device.regions
        ]
    wal = manager.wal.chip
    return (
        type(device).__name__,
        type(device.chip).__name__,
        len(device.chip.chips),
        type(wal).__name__,
        len(wal.chips),
        type(manager.policy).__name__,
        str(manager.scheme),
        regions,
        device.logical_pages,
        _geometry(device.chip.geometry),
        _geometry(wal.geometry),
        manager.pool.capacity,
    )


#: Built by the experiment harness: TPC-B at 8 000 accounts, sized by the
#: spec's rule, 4 channels (IPL: 1), a WAL.  Recorded from the two
#: builders this spec replaced; ``noftl-plain`` is new to this harness
#: (the row ``ipa-native`` builds, without IPA).
BENCH_ROWS = {
    "traditional": ("PageMappingFtl", "FlashDevice", 4, "FlashChip", 1,
                    "TraditionalPolicy", "[0x0]", None, 652,
                    (4096, 128, 64, 12), (4096, 16, 64, 8), 64),
    "ipa-blockdev": ("IpaFtl", "FlashDevice", 4, "FlashChip", 1,
                     "IpaBlockDevicePolicy", "[2x4]", None, 652,
                     (4096, 128, 64, 12), (4096, 16, 64, 8), 64),
    "ipa-native": ("NoFtlDevice", "FlashDevice", 4, "FlashChip", 1,
                   "IpaNativePolicy", "[2x4]", [((2, 4), 652)], 652,
                   (4096, 128, 64, 12), (4096, 16, 64, 8), 64),
    "noftl-plain": ("NoFtlDevice", "FlashDevice", 4, "FlashChip", 1,
                    "TraditionalPolicy", "[0x0]", [(None, 652)], 652,
                    (4096, 128, 64, 12), (4096, 16, 64, 8), 64),
    "ipl": ("IplStore", "FlashChip", 1, "FlashChip", 1,
            "IplPolicy", "[0x0]", None, 672,
            (4096, 128, 64, 14), (4096, 16, 64, 8), 64),
}

#: Built by the crash harness's preset at 4 data and 2 log channels with
#: background GC.
FAULT_ROWS = {
    "traditional": ("PageMappingFtl", "FlashDevice", 4, "FlashDevice", 2,
                    "TraditionalPolicy", "[0x0]", None, 51,
                    (1024, 128, 8, 8), (1024, 16, 8, 16), 4),
    "ipa-blockdev": ("IpaFtl", "FlashDevice", 4, "FlashDevice", 2,
                     "IpaBlockDevicePolicy", "[2x4]", None, 51,
                     (1024, 128, 8, 8), (1024, 16, 8, 16), 4),
    "ipa-native": ("NoFtlDevice", "FlashDevice", 4, "FlashDevice", 2,
                   "IpaNativePolicy", "[2x4]", [((2, 4), 51)], 51,
                   (1024, 128, 8, 8), (1024, 16, 8, 16), 4),
    "noftl-plain": ("NoFtlDevice", "FlashDevice", 4, "FlashDevice", 2,
                    "TraditionalPolicy", "[0x0]", [(None, 51)], 51,
                    (1024, 128, 8, 8), (1024, 16, 8, 16), 4),
}


class TestMapping:
    def test_every_backend_has_a_pinned_row(self):
        assert tuple(BENCH_ROWS) == BACKENDS
        assert tuple(FAULT_ROWS) == MOUNTABLE

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_experiment_harness_builds_the_pinned_stack(self, backend):
        config = ExperimentConfig(
            workload=TpcbWorkload(scale=1, accounts_per_branch=8000),
            architecture=backend,
            scheme=SCHEME_2X4 if backend.startswith("ipa") else IPA_DISABLED,
            channels=1 if backend == "ipl" else 4,
            with_wal=True,
        )
        _db, manager = build_stack(config)
        assert _row(manager) == BENCH_ROWS[backend]

    @pytest.mark.parametrize("backend", MOUNTABLE)
    def test_fault_preset_builds_the_pinned_stack(self, backend):
        spec = fault_spec(
            backend, channels=4, wal_channels=2, background_gc=True
        )
        stack = FaultStack(spec)
        assert _row(stack.manager) == FAULT_ROWS[backend]

    @pytest.mark.parametrize("backend", MOUNTABLE)
    def test_mount_rebuilds_the_same_stack(self, backend):
        spec = fault_spec(backend, channels=4, wal_channels=2)
        stack = FaultStack(spec)
        manager = spec.mount(stack.data, stack.wal)
        assert manager.device is not stack.manager.device
        assert _row(manager) == _row(stack.manager)


class TestRefusals:
    @pytest.mark.parametrize(
        "field, value",
        [("channels", 0), ("channels", -3), ("wal_channels", 0)],
    )
    def test_channel_counts_below_one(self, field, value):
        with pytest.raises(ValueError, match=field):
            fault_spec("traditional", **{field: value})

    @pytest.mark.parametrize(
        "field, value, bounds",
        [
            ("device_utilization", 0.0, r"\(0, 1\]"),
            ("device_utilization", -1.0, r"\(0, 1\]"),
            ("device_utilization", 1.5, r"\(0, 1\]"),
            ("over_provisioning", 1.0, r"\(0, 1\)"),
        ],
    )
    def test_impossible_sizing_fractions(self, field, value, bounds):
        with pytest.raises(ValueError, match=f"{field} must be in {bounds}"):
            ExperimentConfig(
                workload=TpcbWorkload(scale=1), **{field: value}
            )

    def test_ipl_cannot_be_mounted(self):
        spec = StackSpec(architecture="ipl")
        with pytest.raises(ValueError, match="rebuild_from_media"):
            spec.mount(FlashChip(spec.data_geometry(TpcbWorkload(scale=1))), None)

    def test_ipl_fault_stack_is_refused_before_it_is_built(self):
        with pytest.raises(ValueError, match="keeps its log buffers in memory"):
            FaultStack(fault_spec("ipl"))

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="architecture must be one of"):
            StackSpec(architecture="page-mapping")

    def test_sizing_needs_a_workload(self):
        with pytest.raises(ValueError, match="workload"):
            StackSpec().build()
