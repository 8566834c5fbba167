"""Mapping-table reconstruction from OOB metadata.

Every FTL keeps its logical-to-physical mapping in host RAM — state
that evaporates at power loss.  ``rebuild_from_media`` must reconstruct
it from the per-page OOB records alone: highest sequence number wins,
torn pages (incomplete metadata) are not addressable, and a rebuilt
device must serve exactly the pages the pre-crash device would have.
"""

import random
from unittest import mock

import pytest

from repro.core.config import IPA_DISABLED, SCHEME_2X4
from repro.fault import FaultInjector, PowerLossError
from repro.flash.chip import FlashChip
from repro.flash.device import FlashDevice
from repro.flash.geometry import FlashGeometry
from repro.flash.page import PageState
from repro.ftl.ipa_ftl import IpaFtl
from repro.ftl.noftl import NoFtlDevice
from repro.ftl.oob_meta import OOB_META_SIZE, pack_oob_meta, unpack_oob_meta
from repro.ftl.page_mapping import PageMappingFtl

GEO = FlashGeometry(page_size=256, oob_size=64, pages_per_block=4, blocks=8)

BUILDERS = {
    "page-mapping": lambda chip: PageMappingFtl(chip, over_provisioning=0.2),
    "ipa-ftl": lambda chip: IpaFtl(chip, over_provisioning=0.2),
    "noftl-plain": lambda chip: _noftl(chip, ipa=IPA_DISABLED),
    "noftl-ipa": lambda chip: _noftl(chip, ipa=SCHEME_2X4),
}


def _noftl(chip, ipa):
    device = NoFtlDevice(chip, over_provisioning=0.2)
    device.create_region("r", blocks=GEO.blocks, ipa=ipa)
    return device


def content(lba: int, version: int) -> bytes:
    return bytes([lba & 0xFF, version & 0xFF]) + b"\x00" * (GEO.page_size - 2)


class TestOobMetaCodec:
    def test_round_trip(self):
        raw = pack_oob_meta(lba=1234, seq=5_000_000_001)
        assert unpack_oob_meta(raw) == (1234, 5_000_000_001)

    def test_torn_record_is_not_addressable(self):
        raw = pack_oob_meta(7, 9)
        for cut in range(len(raw)):
            torn = raw[:cut] + b"\xff" * (len(raw) - cut)
            assert unpack_oob_meta(torn) is None

    def test_corrupt_byte_fails_crc(self):
        raw = bytearray(pack_oob_meta(7, 9))
        raw[3] ^= 0x40
        assert unpack_oob_meta(bytes(raw)) is None


@pytest.mark.parametrize("backend", sorted(BUILDERS))
class TestRebuildFromMedia:
    def test_rebuilt_device_serves_identical_pages(self, backend):
        chip = FlashChip(GEO)
        device = BUILDERS[backend](chip)
        lbas = list(range(10))
        # Several overwrite rounds: stale copies accumulate, GC migrates
        # live pages, so the rebuild must pick winners by sequence, not
        # by physical position.
        for version in range(12):
            for lba in lbas:
                device.write_page(lba, content(lba, version))
        assert chip.stats.block_erases > 0, "workload must exercise GC"

        # Fresh Python state over the surviving media.
        rebuilt = BUILDERS[backend](chip)
        rebuilt.rebuild_from_media()
        for lba in lbas:
            assert rebuilt.read_page(lba) == content(lba, 11)
        with pytest.raises(KeyError):
            rebuilt.read_page(len(lbas))  # never written: stays unmapped

    def test_torn_overwrite_reverts_to_previous_version(self, backend):
        chip = FlashChip(GEO)
        device = BUILDERS[backend](chip)
        device.write_page(3, content(3, 1))
        # Tear the overwrite anywhere short of completion: the OOB
        # metadata record occupies the transfer's final bytes, so any
        # cut below the total leaves the new copy unaddressable.
        seed = 0
        while True:
            injector = FaultInjector(crash_after_ops=1, seed=seed)
            injector.attach(chip)
            try:
                device.write_page(3, content(3, 2))
            except PowerLossError:
                pass
            finally:
                FaultInjector.detach(chip)
            if "torn at byte" in (injector.crash_op or ""):
                cut, total = injector.crash_op.rsplit(" ", 1)[1].split("/")
                if int(cut) < int(total):
                    break
            # Full-length cut (or in-place path): the write completed;
            # rebuild a fresh stack and retry with the next seed.
            chip = FlashChip(GEO)
            device = BUILDERS[backend](chip)
            device.write_page(3, content(3, 1))
            seed += 1

        rebuilt = BUILDERS[backend](chip)
        rebuilt.rebuild_from_media()
        assert rebuilt.read_page(3) == content(3, 1)

    def test_rebuild_then_write_continues_cleanly(self, backend):
        chip = FlashChip(GEO)
        device = BUILDERS[backend](chip)
        for lba in range(4):
            device.write_page(lba, content(lba, 1))
        rebuilt = BUILDERS[backend](chip)
        rebuilt.rebuild_from_media()
        rebuilt.write_page(0, content(0, 2))
        rebuilt.write_page(4, content(4, 1))
        again = BUILDERS[backend](chip)
        again.rebuild_from_media()
        assert again.read_page(0) == content(0, 2)
        assert again.read_page(4) == content(4, 1)
        assert again.read_page(3) == content(3, 1)


def _relocation_windows(backend, writes):
    """Crash-free pass: ``(mutating ops before the batch, copies in it)``
    of every relocation batch the write sequence causes."""
    chip = FlashChip(GEO)
    device = BUILDERS[backend](chip)
    counter = FaultInjector(crash_after_ops=None).attach(chip)
    windows = []
    run_moves = PageMappingFtl._run_moves

    def spy(self, victim, moves, *rest):
        windows.append((counter.ops_seen, len(moves)))
        return run_moves(self, victim, moves, *rest)

    with mock.patch.object(PageMappingFtl, "_run_moves", spy):
        for lba, version in writes:
            device.write_page(lba, content(lba, version))
    return windows


def _overwrites(seed: int, count: int = 160, lbas: int = 18):
    rng = random.Random(seed)
    versions = dict.fromkeys(range(lbas), 0)
    writes = [(lba, 0) for lba in range(lbas)]
    for _ in range(count):
        lba = rng.randrange(lbas)
        versions[lba] += 1
        writes.append((lba, versions[lba]))
    return writes


@pytest.mark.parametrize("channels", [1, 2], ids=["1-channel", "2-channels"])
@pytest.mark.parametrize("backend", sorted(BUILDERS))
class TestCrashInsideARelocationBatch:
    """Power fails while GC's batch is programming a destination.

    The victim is erased only after its batch, so every source is still
    there: the remounted device serves exactly the writes that completed
    (the host write that triggered the collection has not landed).  A copy
    the batch did complete carries its source's ``(lba, seq)`` record, so
    the mount scan finds two byte-identical candidates for that LBA.
    """

    def test_torn_copy_recovers_to_the_completed_writes(self, backend, channels):
        writes = _overwrites(seed=5)
        windows = [w for w in _relocation_windows(backend, writes) if w[1] >= 2]
        assert len(windows) >= 3, "workload must relocate pages in batches"
        for before, copies in windows[:4]:
            # The batch's second destination program: one copy is complete.
            self.crash_and_remount(backend, channels, writes, before + 2, copies)

    def crash_and_remount(self, backend, channels, writes, point, copies):
        chip = (
            FlashChip(GEO) if channels == 1
            else FlashDevice(GEO, channels=channels)
        )
        device = BUILDERS[backend](chip)
        injector = FaultInjector(crash_after_ops=point, seed=point).attach(chip)
        shadow = {}
        completed = 0
        with pytest.raises(PowerLossError):
            for lba, version in writes:
                device.write_page(lba, content(lba, version))
                completed += 1
                if channels > 1:
                    # A host write is durable once its pulse has finished
                    # (the WAL's barrier in the full stack); what is in
                    # flight at the crash is the collection's own.
                    chip.sync()
                shadow[lba] = version
        if channels > 1:
            chip.power_loss()
        FaultInjector.detach(chip)
        assert injector.crash_op.startswith("program torn at byte")

        if channels == 1:
            # Twins: the completed copy and its not-yet-erased source.
            holders = {}
            for block in chip.blocks:
                for page in block.pages:
                    if page.state is PageState.PROGRAMMED:
                        record = unpack_oob_meta(page.raw_oob()[-OOB_META_SIZE:])
                        if record is not None:
                            holders.setdefault(record, []).append(page)
            twins = [pages for pages in holders.values() if len(pages) > 1]
            assert len(twins) == 1 and len(twins[0]) == 2
            first, second = twins[0]
            assert first.raw_data() == second.raw_data()
            assert first.raw_oob() == second.raw_oob()

        rebuilt = BUILDERS[backend](chip)
        rebuilt.rebuild_from_media()
        for lba, version in shadow.items():
            assert rebuilt.read_page(lba) == content(lba, version), (point, lba)
        # And it keeps working: the interrupted write can be retried.
        lba, version = writes[completed]
        rebuilt.write_page(lba, content(lba, version))
        assert rebuilt.read_page(lba) == content(lba, version)
