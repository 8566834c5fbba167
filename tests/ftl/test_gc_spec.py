"""The batched garbage collector against the one-page-at-a-time spec in
``tests.reference.ftl``.

``BlockManager._relocate`` moves a victim's valid pages as one
``execute_batch`` of ``(source, destination)`` pairs; on the spec
stack it is replaced by ``ref_relocate`` (read with OOB, allocate,
program, re-map, per page).  Both stacks take the same seeded overwrite
stream and must leave clock, counters, maps, free pool, background
cursor, ledger and media in the same place after every op, on every
backend, GC mode and channel count, error paths included.
"""

import hashlib
from dataclasses import fields
from types import MethodType

import numpy as np
import pytest

from repro.flash.chip import FlashChip
from repro.flash.device import FlashDevice
from repro.flash.errors import FlashError
from repro.flash.geometry import FlashGeometry
from repro.flash.modes import FlashMode
from repro.flash.page import PageState
from repro.flash.sanitize import Sanitizer
from repro.ftl.interface import DeviceFullError
from repro.ftl.ipa_ftl import IpaFtl
from repro.ftl.noftl import IpaRegionConfig, NoFtlDevice
from repro.ftl.oob_meta import OOB_META_SIZE
from repro.ftl.page_mapping import PageMappingFtl
from repro.obs.ledger import WriteLedger
from tests.reference.ftl import ref_relocate

#: 32 blocks stripe over 4 channels; 8 pages a block keep reclaims frequent.
GC_GEO = FlashGeometry(page_size=256, oob_size=128, pages_per_block=8, blocks=32)
GC_BACKENDS = ("page-mapping", "ipa-ftl", "noftl-2-regions")
#: name -> BlockManager options of the device under test.
GC_MODES = {
    "foreground": {},
    "background-1": {"background_gc": True, "gc_migration_budget": 1},
    "background-8": {"background_gc": True, "gc_migration_budget": 8},
}


def _gc_stack(backend, spec, channels, gc_options, ledger, **chip_options):
    """One device (+ its block managers and ledger), shipped or spec."""
    mode = FlashMode.MLC if backend == "page-mapping" else FlashMode.PSLC
    if channels == 1:
        chip = FlashChip(GC_GEO, mode=mode, **chip_options)
        leaves = [chip]
    else:
        chip = FlashDevice(GC_GEO, channels=channels, mode=mode, **chip_options)
        leaves = chip.chips
    if backend == "page-mapping":
        device = PageMappingFtl(chip, over_provisioning=0.2, **gc_options)
        managers = [device._blocks]
    elif backend == "ipa-ftl":
        device = IpaFtl(chip, over_provisioning=0.2, **gc_options)
        managers = [device._blocks]
    else:
        device = NoFtlDevice(chip, over_provisioning=0.2, **gc_options)
        hot = device.create_region("hot", blocks=20, ipa=IpaRegionConfig(2, 4))
        cold = device.create_region("cold", blocks=12, ipa=None)
        managers = [hot._blocks, cold._blocks]
    if spec:
        for manager in managers:
            manager._relocate = MethodType(ref_relocate, manager)
    book = None
    if ledger:
        book = WriteLedger()
        for target in [device, chip, *leaves, *managers]:
            target.ledger = book
        for leaf in leaves:
            book.watch_chip(leaf)
    return device, chip, managers, book


def _gc_media_digest(chip):
    """Page bytes plus what ``media_digest`` leaves out: erase counts,
    bad-block flags, program passes and disturb."""
    digest = hashlib.sha256()
    for block in chip.blocks:
        digest.update(block.erase_count.to_bytes(4, "little"))
        digest.update(bytes([block.is_bad]))
        for page in block.pages:
            digest.update(page.data_view())
            digest.update(page.oob_view())
            digest.update(
                b"%d %d " % (page.state is PageState.PROGRAMMED, page.program_passes)
            )
            digest.update(page._disturb.tobytes())
    return digest.hexdigest()


def _counters(stats):
    return {f.name: getattr(stats, f.name) for f in fields(stats)}


def _gc_state(device, chip, managers, book, full):
    """What the two collectors must agree on: clock and counters after
    every operation, and after one that reclaimed a block or failed
    (``full``) the managers' whole state, the ledger and the media as
    well."""
    state = {
        "now_us": repr(chip.clock.now_us),
        "breakdown": {k: repr(v) for k, v in chip.clock.breakdown_us.items()},
        "flash": _counters(chip.stats),
        "device": _counters(device.stats),
        "bg": [(m._bg_victim, m._bg_cursor) for m in managers],
    }
    if not full:
        return state
    state.update({
        "managers": [
            {
                # Item lists, not dicts: insertion order is compared too.
                "mapping": list(m.mapping.items()),
                "rmap": list(m._rmap.items()),
                "valid": list(m._valid.items()),
                "appends_done": list(m.appends_done.items()),
                "free": list(m._free),
                "active": m._active,
                "cursor": m._cursor,
                "seq": m._seq,
                "wear_victim": m._wear_victim,
                "blocks": list(m.block_ids),
            }
            for m in managers
        ],
        "media": _gc_media_digest(chip),
    })
    if isinstance(chip, FlashDevice):
        state["channels"] = chip.channel_stats()
        state["chips"] = [_counters(c.stats) for c in chip.chips]
    if book is not None:
        state["ledger"] = {r.cause: r.as_dict() for r in book.records()}
        state["conservation"] = book.conservation_errors()
    return state


def _gc_ops(backend, seed, count, lbas):
    """A seeded overwrite stream over ``lbas``: mostly page writes, half of
    them on a hot quarter, with the backend's in-place forms, a few reads
    and a few trims."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        hot = rng.random() < 0.5
        lba = lbas[int(rng.integers(0, len(lbas) // 4 if hot else len(lbas)))]
        roll = rng.random()
        fill = int(rng.integers(0, 256))
        if roll < 0.03:
            yield ("trim", lba, 0)
        elif roll < 0.10:
            yield ("read", lba, 0)
        elif roll < 0.35 and backend != "page-mapping":
            yield ("in-place", lba, fill)
        else:
            yield ("write", lba, fill)


def _gc_apply(backend, device, op):
    """Run one op; returns its outcome (or the error it raised)."""
    kind, lba, fill = op
    try:
        if kind == "trim":
            return device.trim(lba)
        if kind == "read":
            return device.read_page(lba)
        if kind == "in-place" and backend == "ipa-ftl":
            # Clearing bits of the current image lands in place.
            old = device.read_page(lba)
            return device.write_page(lba, bytes(b & fill for b in old))
        if kind == "in-place":
            # write_delta into the erased tail of a 100-byte page.
            region = device.region_of(lba)
            used = region.appends_on(lba)
            return device.write_delta(lba, 128 + 16 * used, bytes([fill & 0x7F]) * 8)
        return device.write_page(lba, bytes([fill]) * 100)
    except (KeyError, FlashError) as error:
        return (type(error), str(error))


def _gc_lockstep(backend, channels, gc_options, ledger=False, seed=11, ops=800,
                 prepare=None, **chip_options):
    """Drive shipped and spec stacks together, comparing as ``_gc_state``
    says; four LBAs in five are in use (of every region).  ``prepare`` is
    applied to both filled stacks and returns the LBAs the stream must
    leave alone.  Returns the shipped stack and its number of reclaims."""
    live = _gc_stack(backend, False, channels, gc_options, ledger, **chip_options)
    ref = _gc_stack(backend, True, channels, gc_options, ledger, **chip_options)
    assert live[0].logical_pages == ref[0].logical_pages
    lbas = [lba for lba in range(live[0].logical_pages) if lba % 5]
    for lba in lbas:
        for device in (live[0], ref[0]):
            device.write_page(lba, bytes([lba % 251]) * 100)
    if prepare is not None:
        spared = prepare(live)
        assert prepare(ref) == spared
        lbas = [lba for lba in lbas if lba not in spared]
    reclaims = 0
    for step, op in enumerate(_gc_ops(backend, seed, ops, lbas)):
        erases = live[0].stats.gc_erases
        outcome = _gc_apply(backend, live[0], op)
        assert outcome == _gc_apply(backend, ref[0], op), (step, op)
        reclaims += live[0].stats.gc_erases != erases
        full = live[0].stats.gc_erases != erases or isinstance(outcome, tuple)
        assert _gc_state(*live, full=full) == _gc_state(*ref, full=full), (step, op)
    assert _gc_state(*live, full=True) == _gc_state(*ref, full=True)
    return live, reclaims


class TestGarbageCollector:
    @pytest.mark.parametrize("channels", [1, 4], ids=["1-channel", "4-channels"])
    @pytest.mark.parametrize("gc_mode", sorted(GC_MODES))
    @pytest.mark.parametrize("backend", GC_BACKENDS)
    def test_lockstep_over_a_seeded_overwrite_stream(
        self, backend, gc_mode, channels
    ):
        live, reclaims = _gc_lockstep(backend, channels, GC_MODES[gc_mode])
        stats = live[0].stats
        assert reclaims > 30 and stats.gc_page_migrations > 100
        if backend != "page-mapping":
            assert stats.in_place_appends > 50
        if backend == "noftl-2-regions":
            # Delta slots in use travelled with relocated pages.
            assert any(live[2][0].appends_done.values())
        if gc_mode != "foreground":
            assert stats.background_gc_migrations > 100
        if channels > 1:
            assert live[1].clock.breakdown_us["channel_wait"] > 0

    @pytest.mark.parametrize("channels", [1, 4], ids=["1-channel", "4-channels"])
    @pytest.mark.parametrize("gc_mode", ["foreground", "background-8"])
    def test_wear_leveling_victims(self, gc_mode, channels):
        options = dict(GC_MODES[gc_mode], wear_leveling_gap=3)
        live, _ = _gc_lockstep(
            "page-mapping", channels, options, ledger=True, ops=2500
        )
        assert live[0].stats.wear_leveling_moves > 5
        assert live[3].by_cause["wear_leveling"].programs > 5

    @pytest.mark.parametrize("gc_mode", sorted(GC_MODES))
    @pytest.mark.parametrize("backend", GC_BACKENDS)
    def test_ledger_attribution_is_conserved(self, backend, gc_mode):
        live, _ = _gc_lockstep(backend, 1, GC_MODES[gc_mode], ledger=True, ops=900)
        book = live[3]
        assert book.conservation_errors() == []
        moved = book.by_cause["gc_migration"]
        assert moved.programs == live[0].stats.gc_page_migrations
        # Every relocated page carried its mapping record: its 17 bytes
        # were shifted to ``oob_meta``, once per copy.
        assert moved.bytes == moved.programs * (
            GC_GEO.page_size + GC_GEO.oob_size - OOB_META_SIZE
        )

    @pytest.mark.parametrize("channels", [1, 4], ids=["1-channel", "4-channels"])
    @pytest.mark.parametrize("gc_mode", sorted(GC_MODES))
    def test_an_unreadable_source_stops_both_collectors_at_the_same_place(
        self, gc_mode, channels, monkeypatch
    ):
        """A valid page that is not its block's first goes uncorrectable.
        When its block is collected the run fails at that move: the moves
        before it are booked, the failed sense is charged, the destination
        it never reached goes back to the allocation stream and a
        background scan stays on the page — where the one-page-at-a-time
        spec stops, op after op, to the end of the stream."""
        monkeypatch.setenv("REPRO_SANITIZE", "1")

        def break_a_page(stack):
            _device, chip, (manager,), _book = stack
            block = 2  # filled in LBA order: every page of it is valid
            assert manager._valid[block] == len(manager._usable_offsets)
            ppn = block * GC_GEO.pages_per_block + manager._usable_offsets[3]
            counts = np.zeros(chip.page_at(ppn)._disturb.shape, dtype=np.int64)
            counts[0] = 1_000
            chip.page_at(ppn).add_disturb(counts)
            return {manager._rmap[ppn]}  # never rewritten: it stays valid

        # The victim is first collected near op 95; 200 more ops fail.
        live, _ = _gc_lockstep(
            "page-mapping", channels, GC_MODES[gc_mode], ops=300,
            prepare=break_a_page,
        )
        device, chip, (manager,), _book = live
        failed = chip.stats.ecc_uncorrectable_events
        assert failed > 100
        # Senses that moved nothing: the failed ones only.
        assert chip.stats.page_reads == (
            device.stats.host_reads + device.stats.gc_page_migrations + failed
        )
        # Block 2 is still there with the broken page valid in it.
        broken = 2 * GC_GEO.pages_per_block + manager._usable_offsets[3]
        assert broken in manager._rmap and 2 not in manager._free
        if manager._bg_victim == 2:
            assert manager._usable_offsets[manager._bg_cursor] == 3
        # No page was allocated that nothing was programmed to.
        ppb = GC_GEO.pages_per_block
        for position, offset in enumerate(manager._usable_offsets):
            state = chip.page_at(manager._active * ppb + offset).state
            assert (state is PageState.PROGRAMMED) == (position < manager._cursor)

    @pytest.mark.parametrize("gc_mode", sorted(GC_MODES))
    def test_running_out_of_blocks_in_the_middle_of_a_victim(
        self, gc_mode, monkeypatch
    ):
        """Blocks retire after three erases until a relocation finds the
        free pool empty: the pages that got a destination have moved, the
        page that did not was sensed (a move reads before it allocates),
        and ``DeviceFullError`` comes out of the same op with the same
        state on both stacks, from then on from every write.  A
        background scan stays *on* the page that found no destination, so
        the victim is never erased with it mapped: under
        ``REPRO_SANITIZE=1`` every audit passes."""
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        live, _ = _gc_lockstep(
            "page-mapping", 1, GC_MODES[gc_mode], ops=700, endurance_limit=3,
        )
        device, chip, (manager,), _book = live
        assert device.stats.retired_blocks >= 8
        # Senses that moved nothing: one per relocation that ran dry.
        assert chip.stats.page_reads - (
            device.stats.host_reads + device.stats.gc_page_migrations
        ) >= 2
        mapping = dict(manager.mapping)
        for lba in range(1, 200, 5):
            op = ("write", lba, 7)
            assert _gc_apply("page-mapping", device, op)[0] is DeviceFullError
        assert manager.mapping == mapping
        if gc_mode != "foreground":
            victim = manager._bg_victim
            stuck = victim * GC_GEO.pages_per_block + manager._usable_offsets[
                manager._bg_cursor
            ]
            assert stuck in manager._rmap and victim not in manager._free
            assert chip.page_at(stuck).state is PageState.PROGRAMMED
        Sanitizer().check_block_manager(manager)
