"""Buffer-eviction trace capture and device-level replay.

The paper's IPL comparison was trace-driven: "The IPL versus IPA
comparison was done by using the original IPL simulator ... on traces
recorded from running TPC-B/-C and TATP benchmarks" (footnote 1).  This
module reproduces that method:

1. :func:`record_trace` runs a workload on the traditional stack and
   captures the logical I/O stream below the buffer pool — fetch misses
   and dirty evictions, each eviction annotated with its update-operation
   sizes (the tracker's raw op log) and net changed bytes;
2. :func:`replay_on_ipa` / :func:`replay_on_ipl` push the *same* stream
   through either device architecture, so the comparison is exact:
   identical logical workload, different storage organisation.

Replay issues one device call per event: a fetch miss is a ``read_page``,
an eviction a ``write_delta`` run or a ``write_page``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.baselines.ipl import IplConfig, IplStore
from repro.core.config import (
    IPA_DISABLED,
    PAGE_FOOTER_SIZE,
    IpaScheme,
)
from repro.engine.database import Database
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.flash.modes import FlashMode
from repro.flash.stats import DeviceStats, FlashStats
from repro.ftl.noftl import IpaRegionConfig, NoFtlDevice
from repro.ftl.page_mapping import PageMappingFtl
from repro.stack import StackSpec
from repro.storage.buffer import Frame
from repro.storage.manager import StorageManager, TraditionalPolicy
from repro.workloads.base import Workload


@dataclass(frozen=True)
class TraceEvent:
    """One logical I/O below the buffer pool.

    Attributes:
        kind: "miss" (page fetched from the device) or "evict" (dirty
            page written back).
        lba: Logical page.
        op_sizes: Changed-byte count of each bracketed update operation
            during the residency (evict events only).
        meta_bytes: Distinct header/footer bytes changed.
        net_bytes: Distinct body bytes changed.
    """

    kind: str
    lba: int
    op_sizes: tuple = ()
    meta_bytes: int = 0
    net_bytes: int = 0


@dataclass
class Trace:
    """A captured run: events plus the page geometry they assume."""

    events: list = field(default_factory=list)
    page_size: int = 4096
    max_lba: int = 0


class _TracingPolicy(TraditionalPolicy):
    """Traditional write path + event capture."""

    name = "tracing"

    def __init__(self, trace: Trace) -> None:
        self.trace = trace

    def flush(self, manager: StorageManager, frame: Frame) -> None:
        tracker = frame.tracker
        self.trace.events.append(
            TraceEvent(
                kind="evict",
                lba=frame.lba,
                op_sizes=tuple(tracker.op_sizes),
                meta_bytes=len(tracker.meta_changed_offsets),
                net_bytes=tracker.net_changed_bytes,
            )
        )
        self.trace.max_lba = max(self.trace.max_lba, frame.lba)
        super().flush(manager, frame)


class _ReadRecordingFtl(PageMappingFtl):
    """Conventional FTL that also records fetch misses."""

    def __init__(self, chip: FlashChip, trace: Trace, **kwargs) -> None:
        super().__init__(chip, **kwargs)
        self._trace = trace

    def read_page(self, lba: int) -> bytes:
        self._trace.events.append(TraceEvent(kind="miss", lba=lba))
        self._trace.max_lba = max(self._trace.max_lba, lba)
        return super().read_page(lba)


def record_trace(
    workload: Workload,
    transactions: int = 2000,
    buffer_pages: int = 32,
    page_size: int = 4096,
    seed: int = 42,
) -> Trace:
    """Run the workload on the traditional stack; return its I/O trace."""
    trace = Trace(page_size=page_size)
    # The chip of the default (traditional) spec; the recording FTL and
    # policy are this module's own.
    spec = StackSpec(page_size=page_size)
    chip = FlashChip(spec.data_geometry(workload), mode=spec.mode)
    device = _ReadRecordingFtl(
        chip, trace, over_provisioning=spec.over_provisioning
    )
    manager = StorageManager(
        device, IPA_DISABLED, _TracingPolicy(trace), buffer_capacity=buffer_pages
    )
    db = Database(manager)
    rng = np.random.default_rng(seed)
    workload.build(db, rng)
    trace.events.clear()  # measure the benchmark phase only
    for _ in range(transactions):
        workload.transaction(db, rng)
    db.checkpoint()
    return trace


@dataclass
class ReplayResult:
    """Device-level outcome of replaying a trace.

    The stats cover the replay phase only: pages last written during the
    recorded run's *build* phase are pre-seeded onto the replay device
    (see :func:`_build_phase_lbas`), and the counters are diffed against
    a post-seeding snapshot, so seeding I/O never pollutes the replayed
    numbers.
    """

    label: str
    device_stats: DeviceStats
    flash_stats: FlashStats
    #: "miss" events in the trace (the read stream being reproduced).
    recorded_misses: int = 0
    #: Misses actually issued as device reads during replay.
    replayed_reads: int = 0
    #: Misses dropped because the LBA was never written — zero since the
    #: build-phase pre-seeding fix; kept as an accounting invariant
    #: (``recorded_misses == replayed_reads + skipped_misses``).
    skipped_misses: int = 0
    #: Build-phase pages written to the device before replay started.
    preseeded_pages: int = 0

    @property
    def physical_writes(self) -> int:
        return self.flash_stats.page_programs + self.flash_stats.page_reprograms

    @property
    def erases(self) -> int:
        return self.flash_stats.block_erases

    @property
    def flash_reads(self) -> int:
        return self.flash_stats.page_reads


def _build_phase_lbas(trace: Trace) -> list[int]:
    """LBAs the replay must pre-seed: read before their first in-trace write.

    ``record_trace`` clears the build-phase events, so a page whose last
    write happened during the build shows up in the benchmark stream as a
    "miss" with no preceding "evict".  The recorded run could read it
    (it was on the device); a replay starting from an empty device used
    to silently skip it, undercounting ``flash_reads`` versus the
    recorded stream.  Seeding these pages up front makes every recorded
    miss replayable.
    """
    written: set[int] = set()
    seeded: list[int] = []
    seen: set[int] = set()
    for event in trace.events:
        if event.kind == "evict":
            written.add(event.lba)
        elif event.lba not in written and event.lba not in seen:
            seen.add(event.lba)
            seeded.append(event.lba)
    return seeded


def _page_template(page_size: int, scheme: IpaScheme) -> bytes:
    """A page image whose delta area is erased (appendable)."""
    buf = bytearray(page_size)
    footer_start = page_size - PAGE_FOOTER_SIZE
    delta_start = footer_start - scheme.delta_area_size
    for i in range(delta_start, footer_start):
        buf[i] = 0xFF
    return bytes(buf)


def replay_on_ipa(
    trace: Trace,
    scheme: IpaScheme,
    mode: FlashMode = FlashMode.PSLC,
    over_provisioning: float = 0.15,
) -> ReplayResult:
    """Replay the trace against a NoFTL device with IPA."""
    from repro.flash.modes import rules_for

    usable = 64 * rules_for(mode).capacity_factor
    blocks = max(
        int((trace.max_lba + 1) / ((1.0 - over_provisioning) * usable)) + 3, 8
    )
    geometry = FlashGeometry(
        page_size=trace.page_size, oob_size=128, pages_per_block=64, blocks=blocks
    )
    device = NoFtlDevice(
        FlashChip(geometry, mode=mode), over_provisioning=over_provisioning
    )
    region = device.create_region(
        "replay",
        blocks=blocks,
        ipa=IpaRegionConfig(scheme.n_records, scheme.m_bytes),
    )
    template = _page_template(trace.page_size, scheme)
    footer_start = trace.page_size - PAGE_FOOTER_SIZE
    delta_start = footer_start - scheme.delta_area_size
    written: set[int] = set()
    preseeded = _build_phase_lbas(trace)
    for lba in preseeded:
        device.write_page(lba, template)
        written.add(lba)
    device_before = device.stats.snapshot()
    flash_before = device.chip.stats.snapshot()
    recorded_misses = replayed_reads = skipped_misses = 0
    for event in trace.events:
        if event.kind == "miss":
            recorded_misses += 1
            if event.lba in written:
                replayed_reads += 1
                device.read_page(event.lba)
            else:
                skipped_misses += 1
            continue
        ops = [s for s in event.op_sizes if s > 0]
        conformant = (
            event.lba in written
            and (ops or event.meta_bytes)
            and all(s <= scheme.m_bytes for s in ops)
            and region.appends_on(event.lba) + max(len(ops), 1)
            <= scheme.n_records
        )
        if conformant:
            ok = True
            for _ in range(max(len(ops), 1)):
                slot = region.appends_on(event.lba)
                offset = delta_start + slot * scheme.record_size
                payload = b"\x00" * scheme.record_size
                if not device.write_delta(event.lba, offset, payload):
                    ok = False
                    break
            if ok:
                continue
        device.write_page(event.lba, template)
        written.add(event.lba)
    return ReplayResult(
        label=f"IPA {scheme} {mode.value}",
        device_stats=device.stats.diff(device_before),
        flash_stats=device.chip.stats.diff(flash_before),
        recorded_misses=recorded_misses,
        replayed_reads=replayed_reads,
        skipped_misses=skipped_misses,
        preseeded_pages=len(preseeded),
    )


def replay_on_ipl(
    trace: Trace,
    config: Optional[IplConfig] = None,
) -> ReplayResult:
    """Replay the trace against an In-Page Logging store."""
    config = config or IplConfig()
    data_fraction = (64 - config.log_pages_per_block) / 64
    blocks = max(
        int((trace.max_lba + 1) / (64 * data_fraction)) + config.spare_blocks + 3,
        8,
    )
    geometry = FlashGeometry(
        page_size=trace.page_size, oob_size=128, pages_per_block=64, blocks=blocks
    )
    store = IplStore(FlashChip(geometry, mode=FlashMode.SLC), config)
    template = _page_template(trace.page_size, IPA_DISABLED)
    written: set[int] = set()
    preseeded = _build_phase_lbas(trace)
    for lba in preseeded:
        store.first_write(lba, template)
        written.add(lba)
    device_before = store.stats.snapshot()
    flash_before = store.chip.stats.snapshot()
    recorded_misses = replayed_reads = skipped_misses = 0
    for event in trace.events:
        if event.kind == "miss":
            recorded_misses += 1
            if event.lba in written:
                replayed_reads += 1
                store.read_page(event.lba)
            else:
                skipped_misses += 1
            continue
        if event.lba not in written:
            store.first_write(event.lba, template)
            written.add(event.lba)
            continue
        changed = event.net_bytes + event.meta_bytes
        if changed:
            store.log_update(event.lba, [(i, 0) for i in range(changed)])
            store.flush_log_for(event.lba)
    return ReplayResult(
        label="IPL",
        device_stats=store.stats.diff(device_before),
        flash_stats=store.chip.stats.diff(flash_before),
        recorded_misses=recorded_misses,
        replayed_reads=replayed_reads,
        skipped_misses=skipped_misses,
        preseeded_pages=len(preseeded),
    )
