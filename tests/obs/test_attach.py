"""Where ``StorageManager.attach`` puts the three observers.

Each layer names its own parts and sets an observer only on the objects
that read it: the tracer on the manager, its buffer pool, the backend
(or, on NoFTL, its regions), the block managers and every chip-shaped
object of the data device; the write ledger on the manager, the block
managers, the WAL and every *leaf* chip of both devices, each watched
for conservation; the lifetime tracker on the block managers.  The
reach is found by walking the built stack's object graph, so a layer
that forgets to forward — or an object that gains an observer nothing
reads — fails here.
"""

from __future__ import annotations

import pytest

from repro.core.config import IPA_DISABLED, SCHEME_2X4
from repro.engine.wal import WriteAheadLog
from repro.baselines.ipl import IplConfig, IplPolicy, IplStore
from repro.fault.harness import FaultStack, fault_spec, make_plan
from repro.flash.chip import FlashChip
from repro.flash.device import FlashDevice
from repro.flash.geometry import FlashGeometry
from repro.ftl.gc import BlockManager
from repro.ftl.ipa_ftl import IpaFtl
from repro.ftl.noftl import IpaRegionConfig, NoFtlDevice
from repro.ftl.page_mapping import PageMappingFtl
from repro.obs import Observation
from repro.obs.ledger import LifetimeTracker, WriteLedger
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.storage.manager import (
    IpaBlockDevicePolicy,
    IpaNativePolicy,
    StorageManager,
    TraditionalPolicy,
)

DATA_GEO = FlashGeometry(page_size=512, oob_size=64, pages_per_block=16, blocks=16)
WAL_GEO = FlashGeometry(page_size=512, oob_size=16, pages_per_block=8, blocks=4)
BACKENDS = ("page-mapping", "ipa-ftl", "noftl", "ipl")


def _chip(geometry: FlashGeometry, channels: int, clock=None):
    if channels == 1:
        return FlashChip(geometry, clock=clock)
    return FlashDevice(geometry, channels=channels, clock=clock)


def _stack(backend: str, channels: int, wal_channels: int) -> StorageManager:
    chip = _chip(DATA_GEO, channels)
    if backend == "page-mapping":
        device, scheme, policy = (
            PageMappingFtl(chip), IPA_DISABLED, TraditionalPolicy()
        )
    elif backend == "ipa-ftl":
        device, scheme, policy = IpaFtl(chip), SCHEME_2X4, IpaBlockDevicePolicy()
    elif backend == "noftl":
        device = NoFtlDevice(chip)
        device.create_region("hot", blocks=8, ipa=IpaRegionConfig(2, 4))
        device.create_region("cold", blocks=8, ipa=None)
        scheme, policy = SCHEME_2X4, IpaNativePolicy()
    else:
        device, scheme, policy = (
            IplStore(chip, IplConfig(log_pages_per_block=4)),
            IPA_DISABLED,
            IplPolicy(),
        )
    manager = StorageManager(device, scheme, policy, buffer_capacity=4)
    manager.wal = WriteAheadLog(_chip(WAL_GEO, wal_channels, manager.clock))
    return manager


_OBSERVERS = (Tracer, WriteLedger, LifetimeTracker, MetricsRegistry)


def _reach(root: object, observer: object, name: str) -> set[int]:
    """ids of the stack objects whose own ``name`` attribute is ``observer``."""
    seen: set[int] = set()
    hits: set[int] = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _OBSERVERS):
            continue
        seen.add(id(obj))
        if isinstance(obj, (list, tuple)):
            stack.extend(obj)
            continue
        if isinstance(obj, dict):
            stack.extend(obj.values())
            continue
        if not type(obj).__module__.startswith("repro."):
            continue
        attrs = getattr(obj, "__dict__", {})
        if attrs.get(name) is observer:
            hits.add(id(obj))
        stack.extend(attrs.values())
        for slot in getattr(type(obj), "__slots__", ()):
            stack.append(getattr(obj, slot, None))
    return hits


def _ids(*objects: object) -> set[int]:
    return {id(obj) for obj in objects}


@pytest.mark.parametrize("wal_channels", [1, 2])
@pytest.mark.parametrize("channels", [1, 4])
@pytest.mark.parametrize("backend", BACKENDS)
def test_observers_reach_exactly_the_parts_that_read_them(
    backend, channels, wal_channels
):
    manager = _stack(backend, channels, wal_channels)
    obs = Observation.create(manager)
    device, chip, wal = manager.device, manager.device.chip, manager.wal
    if backend == "noftl":
        owners = list(device.regions)
        managers = [region._blocks for region in device.regions]
    elif backend == "ipl":
        owners, managers = [device], []
    else:
        owners, managers = [device], [device._blocks]
    assert all(type(m) is BlockManager for m in managers)
    chips = {chip, *chip.chips}

    assert _reach(manager, obs.tracer, "tracer") == _ids(
        manager, manager.pool, *owners, *managers, *chips
    )
    assert _reach(manager, obs.ledger, "ledger") == _ids(
        manager, *managers, wal, *chip.chips, *wal.chip.chips
    )
    assert _reach(manager, obs.lifetimes, "lifetimes") == _ids(*managers)
    watched = [c for c, _baseline in obs.ledger._chips]
    assert watched == [*chip.chips, *wal.chip.chips]
    assert wal.chip.tracer is NULL_TRACER


@pytest.mark.parametrize("wal_channels", [1, 2])
def test_multichannel_wal_device_charges_its_chips(wal_channels):
    # Before the chip protocol, a multi-channel WAL device got the ledger
    # on the FlashDevice (which never reads it) and was watched whole:
    # its leaf chips charged nothing, so the `wal` cause showed 0 partial
    # programs and conservation failed against the chips' counters.
    stack = FaultStack(fault_spec("traditional", wal_channels=wal_channels))
    ledger = WriteLedger()
    stack.manager.attach(
        NULL_TRACER, ledger, LifetimeTracker(stack.manager.clock)
    )

    def wal_partials() -> int:
        return sum(chip.stats.page_reprograms for chip in stack.wal.chips)

    before = wal_partials()
    stack.run_updates(make_plan()[:60])
    assert ledger.by_cause["wal"].partial_programs == wal_partials() - before == 62
    assert ledger.conservation_errors() == []
