"""The stack protocol a bare chip shares with a multi-channel device.

``FlashChip`` answers what ``FlashDevice`` answers — ``chips``,
``channels``, ``attach``, ``sync``, ``quiesce``, ``power_loss`` — so the
WAL barrier, the harness's post-load quiesce and the fault tier's kill
call them unconditionally.  On a bare chip the three scheduling calls
are no-ops: it finishes every operation before returning.
"""

from __future__ import annotations

import pytest

from repro.fault.injector import FaultInjector, PowerLossError
from repro.flash import media_digest
from repro.flash.chip import FlashChip
from repro.flash.device import FlashDevice
from repro.flash.geometry import FlashGeometry
from repro.obs.ledger import WriteLedger
from repro.obs.trace import Tracer

GEO = FlashGeometry(page_size=256, oob_size=16, pages_per_block=8, blocks=8)


def _used_chip() -> FlashChip:
    chip = FlashChip(GEO)
    chip.program_page(0, b"\x0f" * GEO.page_size)
    chip.partial_program(1, 0, b"\x01\x02")
    chip.read_page(0)
    chip.erase_block(3)
    return chip


def _state(chip: FlashChip) -> tuple:
    clock = chip.clock
    return (
        repr(clock.now_us),
        sorted((k, repr(v)) for k, v in clock.breakdown_us.items()),
        vars(chip.stats.snapshot()),
        media_digest(chip),
    )


class TestBareChipNoOps:
    @pytest.mark.parametrize("call", ["sync", "quiesce", "power_loss"])
    def test_leaves_clock_stats_and_media_untouched(self, call):
        chip = _used_chip()
        before = _state(chip)
        getattr(chip, call)()
        assert _state(chip) == before

    def test_power_loss_after_a_torn_program_keeps_the_tear(self):
        # The injector tears the interrupted op itself; a bare chip has
        # nothing else in flight, so power_loss must not touch the cut.
        chip = _used_chip()
        injector = FaultInjector(crash_after_ops=1, seed=3).attach(chip)
        with pytest.raises(PowerLossError):
            chip.program_page(GEO.pages_per_block, b"\x00" * GEO.page_size)
        torn = _state(chip)
        chip.power_loss()
        FaultInjector.detach(chip)
        assert _state(chip) == torn
        assert injector.crash_op.startswith("program torn at byte")


class TestProtocolMembers:
    def test_chip_is_its_own_single_leaf(self):
        chip = FlashChip(GEO)
        assert chip.chips == (chip,)
        assert chip.channels == 1

    def test_device_lists_its_channel_chips(self):
        device = FlashDevice(GEO, channels=2)
        assert device.channels == len(device.chips) == 2
        assert all(type(chip) is FlashChip for chip in device.chips)

    @pytest.mark.parametrize("channels", [1, 2])
    def test_attach_reaches_every_leaf_and_watches_it(self, channels):
        chip = FlashChip(GEO) if channels == 1 else FlashDevice(
            GEO, channels=channels
        )
        tracer, ledger = Tracer(), WriteLedger()
        chip.attach(tracer, ledger)
        assert chip.tracer is tracer
        for leaf in chip.chips:
            assert leaf.tracer is tracer and leaf.ledger is ledger
        assert [c for c, _baseline in ledger._chips] == list(chip.chips)
        for ppn in (0, GEO.pages_per_block):  # one page on each channel
            chip.program_page(ppn, b"\x0f" * GEO.page_size)
        assert ledger.by_cause["unattributed"].programs == 2
        assert ledger.conservation_errors() == []
