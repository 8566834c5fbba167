"""Garbage collection talks to the chip in batches: one call per victim.

The exact call-count gate (``benchmarks/test_e2e_call_budget.py``) counts
the first 5 000 ops of ``ftl_overwrite_trad``, and at that workload's fill
the first reclaim comes after about 7 000: the gate never sees the code
that relocates pages.  This file does, at the same geometry, mode,
over-provisioning and fill, from behind a proxy that counts what reaches
the chip's public methods: a reclaimed victim with ``k > 0`` valid pages
costs exactly one ``execute_batch`` of ``k`` ``(source, destination)``
moves, every source on the victim and no destination on it, and not one
``read_page``, ``read_page_with_oob`` or ``program_page`` of its own; a
victim with nothing valid costs none, and the budgeted background
collector never puts more moves in front of an allocation than its
budget.  And a wrapper placed on a chip's public ``program_page`` (how
the end-to-end benchmark times the flash layer) sees the host's
programs only: the move loop runs the kernel's private bodies.
"""

import random
from types import MethodType

import numpy as np
import pytest

from repro.flash.chip import FlashChip, media_digest
from repro.flash.device import FlashDevice
from repro.flash.errors import EccUncorrectableError
from repro.flash.geometry import FlashGeometry
from repro.flash.modes import FlashMode
from repro.ftl.page_mapping import PageMappingFtl
from tests.reference.ftl import ref_relocate

#: ``benchmarks/e2e/workloads.py``: ``FtlOverwriteTrad.setup``.
WORKLOAD_GEO = FlashGeometry(4096, 128, 64, 256)
OVER_PROVISIONING = 0.15
FILL_SHARE = 0.80
#: Host writes after the fill: the free pool (82 blocks) lasts ~5 100.
WRITES = 9_000

SMALL_GEO = FlashGeometry(page_size=256, oob_size=128, pages_per_block=8, blocks=16)


class CountingChip:
    """Forwards everything to ``chip``; logs the public operations."""

    def __init__(self, chip: FlashChip) -> None:
        self._chip = chip
        #: ("program", ppn) | ("read", ppn) | ("read_with_oob", ppn)
        #: | ("erase", block) | ("batch", moves) in call order.
        self.events: list[tuple] = []

    def __getattr__(self, name: str):
        return getattr(self._chip, name)

    def program_page(self, ppn, data, oob=None):
        self.events.append(("program", ppn))
        return self._chip.program_page(ppn, data, oob)

    def read_page(self, ppn):
        self.events.append(("read", ppn))
        return self._chip.read_page(ppn)

    def read_page_with_oob(self, ppn):
        self.events.append(("read_with_oob", ppn))
        return self._chip.read_page_with_oob(ppn)

    def erase_block(self, block_idx):
        self.events.append(("erase", block_idx))
        return self._chip.erase_block(block_idx)

    def execute_batch(self, moves):
        self.events.append(("batch", list(moves)))
        return self._chip.execute_batch(moves)

    def take(self) -> list[tuple]:
        events, self.events = self.events, []
        return events


def _filled_ftl(
    geo: FlashGeometry,
    background_gc=False,
    gc_migration_budget=PageMappingFtl.gc_migration_budget,
):
    chip = CountingChip(FlashChip(geo, mode=FlashMode.MLC))
    ftl = PageMappingFtl(
        chip, over_provisioning=OVER_PROVISIONING, background_gc=background_gc
    )
    ftl.gc_migration_budget = gc_migration_budget
    lbas = int(ftl.logical_pages * FILL_SHARE)
    for lba in range(lbas):
        ftl.write_page(lba, lba.to_bytes(4, "little"))
    assert chip.take() == [("program", ppn) for ppn in range(lbas)]
    return chip, ftl, lbas


def test_one_batch_per_victim_at_the_workloads_geometry_and_fill():
    chip, ftl, lbas = _filled_ftl(WORKLOAD_GEO)
    ppb = WORKLOAD_GEO.pages_per_block
    rng = random.Random(42)
    victims = copies = 0
    for _ in range(WRITES):
        valid_before = dict(ftl._valid)
        lba = rng.randrange(lbas)
        ftl.write_page(lba, lba.to_bytes(4, "little"))
        events = chip.take()
        # The host write's own program comes last, after any reclaim.
        assert events.pop()[0] == "program"
        while events:
            kind, arg = events.pop(0)
            moves = []
            if kind == "batch":
                moves = arg
                kind, arg = events.pop(0)
            assert kind == "erase", "GC reached the chip outside a batch"
            victim = arg
            assert len(moves) == valid_before[victim]
            assert {src // ppb for src, _dst in moves} <= {victim}
            assert victim not in {dst // ppb for _src, dst in moves}
            victims += 1
            copies += len(moves)
    assert victims == ftl.stats.gc_erases > 40
    assert copies == ftl.stats.gc_page_migrations > 20 * victims
    assert ftl.chip.stats.page_reads == copies  # GC's senses, and only them


def test_a_victim_with_nothing_valid_costs_no_batch():
    """Sequential overwrites: every victim is fully invalid when picked."""
    chip, ftl, lbas = _filled_ftl(SMALL_GEO)
    for _round in range(4):
        for lba in range(lbas):
            ftl.write_page(lba, b"again")
    events = chip.take()
    assert ftl.stats.gc_erases >= 8 and ftl.stats.gc_page_migrations == 0
    assert {kind for kind, _ in events} == {"program", "erase"}


@pytest.mark.parametrize("budget", [1, 8])
def test_background_collector_batches_within_its_budget(budget):
    chip, ftl, lbas = _filled_ftl(
        SMALL_GEO, background_gc=True, gc_migration_budget=budget
    )
    rng = random.Random(7)
    copies = 0
    for _ in range(1500):
        lba = rng.randrange(lbas)
        emergencies = ftl.stats.gc_emergency_syncs
        ftl.write_page(lba, lba.to_bytes(4, "little"))
        events = chip.take()
        assert events.pop()[0] == "program"
        assert {kind for kind, _ in events} <= {"batch", "erase"}
        moved = sum(len(moves) for kind, moves in events if kind == "batch")
        if ftl.stats.gc_emergency_syncs == emergencies:
            assert moved <= budget
            # One batch per step on a victim; a step that drains one
            # victim may go on to open the next.
            assert sum(kind == "batch" for kind, _ in events) <= 1 + sum(
                kind == "erase" for kind, _ in events
            )
        copies += moved
    assert copies == ftl.stats.gc_page_migrations > 200
    # An emergency reclaim's copies are foreground ones.
    assert 200 < ftl.stats.background_gc_migrations <= copies


@pytest.mark.parametrize("channels", [1, 4], ids=["chip", "4-channel-device"])
def test_a_wrapper_on_the_public_program_page_sees_no_relocation_rows(channels):
    """Instance-level wrappers, as ``benchmarks/e2e/layers.py`` places
    them, on the public per-op methods of the device and of every chip
    under it: each host write is one ``program_page`` call, and the moves
    of GC's ``execute_batch`` calls reach none of them."""
    if channels == 1:
        device = FlashChip(SMALL_GEO, mode=FlashMode.MLC)
        chips = [device]
    else:
        device = FlashDevice(SMALL_GEO, channels=channels, mode=FlashMode.MLC)
        chips = device.chips
    seen: list[str] = []

    def wrap(obj, name):
        method = getattr(obj, name)

        def wrapper(*args, **kwargs):
            seen.append(name)
            return method(*args, **kwargs)

        setattr(obj, name, wrapper)

    for obj in dict.fromkeys((device, *chips)):
        for name in ("program_page", "read_page_with_oob", "read_page"):
            wrap(obj, name)
    ftl = PageMappingFtl(device, over_provisioning=OVER_PROVISIONING)
    lbas = int(ftl.logical_pages * FILL_SHARE)
    rng = random.Random(5)
    writes = 0
    for lba in [*range(lbas), *(rng.randrange(lbas) for _ in range(600))]:
        ftl.write_page(lba, lba.to_bytes(4, "little"))
        writes += 1
    assert ftl.stats.gc_page_migrations > 100
    # The device's wrapper sees each host write; below a multi-channel
    # device the chips' public methods are not reached at all.
    assert seen == ["program_page"] * writes


def test_a_dry_pool_then_an_unreadable_page_books_the_moves_that_ran():
    """The free pool runs dry after four moves, and the page left without
    a destination is uncorrectable: its sense, after the moves, raises,
    and the FTL is where the one-page-at-a-time spec leaves it — the
    four moves booked, the allocation stream on their last destination."""

    def dry(spec):
        chip = FlashChip(SMALL_GEO, mode=FlashMode.MLC)
        ftl = PageMappingFtl(chip, over_provisioning=OVER_PROVISIONING)
        for lba in range(12):  # block 0 full; block 1 half, and active
            ftl.write_page(lba, bytes([lba]) * 32)
        ftl._free.clear()
        counts = np.zeros(chip.page_at(4)._disturb.shape, dtype=np.int64)
        counts[0] = 1_000
        chip.page_at(4).add_disturb(counts)
        if spec:
            ftl._relocate = MethodType(ref_relocate, ftl)
        return chip, ftl

    def state(chip, ftl):
        return (
            list(ftl.mapping.items()),
            list(ftl._rmap.items()),
            list(ftl._valid.items()),
            list(ftl.appends_done.items()),
            ftl._active,
            ftl._cursor,
            ftl.stats.snapshot().__dict__,
            chip.stats.snapshot().__dict__,
            repr(chip.clock.now_us),
            media_digest(chip),
        )

    live, ref = dry(False), dry(True)
    for _chip, ftl in (live, ref):
        with pytest.raises(EccUncorrectableError):
            ftl._relocate(0)
    assert state(*live) == state(*ref)
    assert live[1].stats.gc_page_migrations == 4
    assert live[1].mapping[3] == SMALL_GEO.pages_per_block + 7
