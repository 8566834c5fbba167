"""One stack spec: the only place a backend name becomes a built stack.

The experiment harness (:mod:`repro.bench.harness`), the crash and
failover harness (:mod:`repro.fault`) and the service tier's shards all
build through :class:`StackSpec`, so the paper's "recovery is NOT
impacted" claim and its Table 1 compare the same stacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.baselines.ipl import IplConfig, IplPolicy, IplStore
from repro.core.config import IPA_DISABLED, IpaScheme
from repro.engine.database import Database
from repro.engine.wal import WriteAheadLog
from repro.flash.chip import FlashChip
from repro.flash.device import FlashDevice
from repro.flash.geometry import FlashGeometry
from repro.flash.latency import SimClock
from repro.flash.modes import FlashMode, rules_for
from repro.ftl.ipa_ftl import IpaFtl
from repro.ftl.noftl import IpaRegionConfig, NoFtlDevice
from repro.ftl.page_mapping import PageMappingFtl
from repro.storage.manager import (
    IpaBlockDevicePolicy,
    IpaNativePolicy,
    StorageManager,
    TraditionalPolicy,
    WritePolicy,
)

if TYPE_CHECKING:
    from repro.workloads.base import Workload

__all__ = ["BACKENDS", "MOUNTABLE", "StackSpec"]

#: Backend name -> (device, write policy).  The NoFTL devices get one
#: region over the whole chip, with IPA on ``ipa-native`` only.
_STACKS: dict[str, tuple[type, type[WritePolicy]]] = {
    "traditional": (PageMappingFtl, TraditionalPolicy),  # whole-page OOP
    "ipa-blockdev": (IpaFtl, IpaBlockDevicePolicy),  # write_delta FTL
    "ipa-native": (NoFtlDevice, IpaNativePolicy),  # the paper's stack
    "noftl-plain": (NoFtlDevice, TraditionalPolicy),
    "ipl": (IplStore, IplPolicy),  # In-Page Logging baseline
}
BACKENDS = tuple(_STACKS)

#: Backends :meth:`StackSpec.mount` can rebuild from media alone:
#: ``IplStore`` keeps its log buffers in memory and has no
#: ``rebuild_from_media``.
MOUNTABLE = tuple(b for b in BACKENDS if b != "ipl")


def _flash(
    geometry: FlashGeometry,
    channels: int,
    mode: FlashMode = FlashMode.SLC,
    clock: SimClock | None = None,
) -> FlashChip | FlashDevice:
    """One chip, or a device striping ``channels`` chips."""
    if channels > 1:
        return FlashDevice(geometry, channels=channels, mode=mode, clock=clock)
    return FlashChip(geometry, mode=mode, clock=clock)


@dataclass(frozen=True, kw_only=True)
class StackSpec:
    """One storage stack, from flash chip to database.

    Attributes:
        architecture: One of :data:`BACKENDS`.
        mode: Flash operating mode (IPL requires SLC).
        scheme: IPA N x M scheme: enabled on ``ipa-*``, ignored elsewhere.
        geometry: Data chip geometry; None sizes it from the workload
            (:meth:`data_geometry`) with ``page_size``,
            ``device_utilization`` (in (0, 1]) and ``over_provisioning``.
        over_provisioning: FTL over-provisioning fraction, in (0, 1).
        buffer_pages: Buffer pool frames.
        channels: Data-device channels; more than 1 builds a
            :class:`FlashDevice` (see ``docs/parallelism.md``).  IPL is
            single-chip only.
        background_gc: Collect garbage incrementally in the background,
            not synchronously in the eviction path.
        with_wal: Attach a write-ahead log on its own log device.
        wal_geometry: Log device geometry; None follows the data chip
            (same page size and pages per block, an eighth of its
            blocks, at least 8).
        wal_channels: Log-device channels.
    """

    architecture: str = "traditional"
    mode: FlashMode = FlashMode.SLC
    scheme: IpaScheme = IPA_DISABLED
    geometry: Optional[FlashGeometry] = None
    page_size: int = 4096
    device_utilization: float = 0.80
    over_provisioning: float = 0.15
    buffer_pages: int = 64
    channels: int = 1
    background_gc: bool = False
    with_wal: bool = False
    wal_geometry: Optional[FlashGeometry] = None
    wal_channels: int = 1

    def __post_init__(self) -> None:
        ipl = self.architecture == "ipl"
        if self.architecture not in BACKENDS:
            raise ValueError(
                f"architecture must be one of {BACKENDS}, "
                f"got {self.architecture!r}"
            )
        if self.architecture.startswith("ipa") and not self.scheme.enabled:
            raise ValueError("IPA architectures need an enabled N x M scheme")
        if ipl and self.mode is not FlashMode.SLC:
            raise ValueError("IPL runs on SLC (its log sectors need appends)")
        if self.channels < 1:
            raise ValueError(f"channels must be >= 1, got {self.channels}")
        if self.wal_channels < 1:
            raise ValueError(f"wal_channels must be >= 1, got {self.wal_channels}")
        if ipl and self.channels > 1:
            raise ValueError(
                "IPL drives the chip's log sectors directly and is "
                "single-chip only"
            )
        if not 0.0 < self.device_utilization <= 1.0:
            raise ValueError(
                "device_utilization must be in (0, 1], "
                f"got {self.device_utilization}"
            )
        if not 0.0 < self.over_provisioning < 1.0:
            raise ValueError(
                "over_provisioning must be in (0, 1), "
                f"got {self.over_provisioning}"
            )

    def data_geometry(self, workload: Workload | None = None) -> FlashGeometry:
        """:attr:`geometry`, or a chip the database of ``workload`` fills
        to ``device_utilization``.

        The rule accounts for the mode's capacity factor (pSLC halves
        usable pages), the over-provisioning and IPL's log-region
        reservation, so every architecture sees the *same logical
        pressure* — the fairness requirement behind Table 1.
        """
        if self.geometry is not None:
            return self.geometry
        if workload is None:
            raise ValueError("a spec without a geometry is sized from a workload")
        pages_per_block = 64
        footprint = workload.estimate_pages(self.page_size)
        target_logical = int(footprint / self.device_utilization) + 1
        if self.architecture == "ipl":
            ipl = IplConfig()
            data_fraction = (
                pages_per_block - ipl.log_pages_per_block
            ) / pages_per_block
            blocks = int(
                target_logical / (pages_per_block * data_fraction)
            ) + ipl.spare_blocks + 2
        else:
            usable = pages_per_block * rules_for(self.mode).capacity_factor
            blocks = int(
                target_logical / ((1.0 - self.over_provisioning) * usable)
            ) + 2
        blocks = max(blocks, 8)
        if blocks % self.channels:
            # Round up so the blocks stripe evenly over the channels.
            blocks += self.channels - blocks % self.channels
        return FlashGeometry(
            page_size=self.page_size,
            oob_size=128,
            pages_per_block=pages_per_block,
            blocks=blocks,
        )

    def build(
        self, workload: Workload | None = None
    ) -> tuple[Database, StorageManager]:
        """Fresh devices, backend, manager and database (nothing loaded);
        ``workload`` sizes the chip when :attr:`geometry` is None."""
        geometry = self.data_geometry(workload)
        manager = self._manager(_flash(geometry, self.channels, self.mode))
        if self.with_wal:
            wal_geometry = self.wal_geometry or FlashGeometry(
                page_size=geometry.page_size,
                oob_size=16,
                pages_per_block=geometry.pages_per_block,
                blocks=max(geometry.blocks // 8, 8),
            )
            manager.wal = WriteAheadLog(
                _flash(wal_geometry, self.wal_channels, clock=manager.clock)
            )
        return Database(manager), manager

    def load(
        self, workload: Workload, seed: int
    ) -> tuple[Database, StorageManager, np.random.Generator]:
        """Build, load ``workload``, then restart simulated time.

        The clock is zeroed after the load phase and the chip's
        scheduling state is dropped with it (``quiesce``): a
        multi-channel device's in-flight end times were computed against
        the old clock and would read as a huge future backlog, charging
        the first measured operations for load-phase array work.
        Returns the generator (seeded from ``seed``) the load drew from.
        """
        db, manager = self.build(workload)
        rng = np.random.default_rng(seed)
        workload.build(db, rng)
        manager.clock.reset()
        manager.device.chip.quiesce()
        return db, manager, rng

    def check_mountable(self) -> None:
        """Refuse a backend :meth:`mount` cannot rebuild from media."""
        if self.architecture not in MOUNTABLE:
            raise ValueError(
                f"{self.architecture!r} cannot be remounted from media: "
                "IplStore keeps its log buffers in memory and has no "
                "rebuild_from_media"
            )

    def mount(
        self,
        data: FlashChip | FlashDevice,
        wal: FlashChip | FlashDevice | None,
    ) -> StorageManager:
        """Brand-new Python objects over surviving devices: the backend's
        mapping rebuilt from OOB metadata, a fresh :class:`WriteAheadLog`
        over ``wal`` (if any).  Recovery (:func:`repro.engine.wal.recover`)
        is the caller's next step."""
        self.check_mountable()
        manager = self._manager(data)
        manager.device.rebuild_from_media()
        if wal is not None:
            manager.wal = WriteAheadLog(wal)
        return manager

    def _manager(self, chip: FlashChip | FlashDevice) -> StorageManager:
        """The backend, policy and scheme :attr:`architecture` names."""
        device_cls, policy_cls = _STACKS[self.architecture]
        ipa = self.architecture.startswith("ipa")
        scheme = self.scheme if ipa else IPA_DISABLED
        if device_cls is IplStore:
            device = IplStore(chip, IplConfig())
        else:
            device = device_cls(
                chip,
                over_provisioning=self.over_provisioning,
                background_gc=self.background_gc,
            )
        if isinstance(device, NoFtlDevice):
            device.create_region(
                "db",
                blocks=chip.geometry.blocks,
                ipa=IpaRegionConfig(scheme.n_records, scheme.m_bytes) if ipa else None,
            )
        return StorageManager(
            device, scheme, policy_cls(), buffer_capacity=self.buffer_pages
        )
