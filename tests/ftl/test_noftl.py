"""NoFTL regions and the write_delta command (Demo-Scenario 3)."""

import pytest

from repro.core.config import DELTA_METADATA_SIZE, PAIR_SIZE, SCHEME_2X4
from repro.flash.chip import FlashChip
from repro.flash.ecc import ECC_SLOT_SIZE, OobLayout, slot_matches
from repro.flash.geometry import FlashGeometry
from repro.flash.modes import FlashMode
from repro.ftl.noftl import NoFtlDevice

GEO = FlashGeometry(page_size=256, oob_size=64, pages_per_block=8, blocks=32)
IPA_2x4 = SCHEME_2X4


def make_device(mode=FlashMode.SLC):
    return NoFtlDevice(FlashChip(GEO, mode=mode), over_provisioning=0.25)


def image(base: bytes, size: int = 256) -> bytes:
    return base + b"\xff" * (size - len(base))


class TestRegions:
    def test_regions_partition_blocks(self):
        dev = make_device()
        r1 = dev.create_region("hot", blocks=16, ipa=IPA_2x4)
        r2 = dev.create_region("cold", blocks=8)
        assert dev.blocks_remaining == 8
        assert r1.lba_base == 0
        assert r2.lba_base == r1.logical_pages

    def test_over_allocation_rejected(self):
        dev = make_device()
        dev.create_region("a", blocks=24)
        with pytest.raises(ValueError):
            dev.create_region("b", blocks=16)

    def test_routing(self):
        dev = make_device()
        r1 = dev.create_region("hot", blocks=16, ipa=IPA_2x4)
        r2 = dev.create_region("cold", blocks=8)
        assert dev.region_of(0) is r1
        assert dev.region_of(r1.logical_pages) is r2
        with pytest.raises(KeyError):
            dev.region_of(dev.logical_pages)

    def test_cross_region_io(self):
        dev = make_device()
        r1 = dev.create_region("hot", blocks=16, ipa=IPA_2x4)
        dev.create_region("cold", blocks=8)
        cold_lba = r1.logical_pages
        dev.write_page(0, image(b"hot data"))
        dev.write_page(cold_lba, image(b"cold data"))
        assert dev.read_page(0)[:8] == b"hot data"
        assert dev.read_page(cold_lba)[:9] == b"cold data"


class TestRoutingEdges:
    """Every routed command at the first and last LBA of each region and
    just outside the device: one routing rule serves them all."""

    def make(self):
        dev = make_device()
        hot = dev.create_region("hot", blocks=12, ipa=IPA_2x4)
        cold = dev.create_region("cold", blocks=12, ipa=IPA_2x4)
        assert (hot.lba_base, hot.lba_end) == (0, cold.lba_base)
        assert cold.lba_end == dev.logical_pages
        edges = [
            (region, lba)
            for region in (hot, cold)
            for lba in (region.lba_base, region.lba_end - 1)
        ]
        return dev, edges

    @staticmethod
    def counters(dev):
        return {
            r.name: (r.stats.host_reads, r.stats.host_writes,
                     r.stats.host_delta_writes, r.stats.trims)
            for r in dev.regions
        }

    def test_edge_lbas_land_in_their_region(self):
        dev, edges = self.make()
        for region, lba in edges:
            before = self.counters(dev)
            assert dev.region_of(lba) is region
            dev.write_page(lba, image(lba.to_bytes(2, "little")))
            assert dev.write_delta(lba, 100, b"D" + bytes([lba & 0xFF]))
            assert dev.region_of(lba).appends_on(lba) == 1
            assert dev.read_page(lba)[:2] == lba.to_bytes(2, "little")
            assert dev.read_page(lba)[100:102] == b"D" + bytes([lba & 0xFF])
            reads, writes, deltas, trims = before[region.name]
            after = self.counters(dev)
            assert after[region.name] == (reads + 2, writes + 1, deltas + 1, trims)
            assert {n: c for n, c in after.items() if n != region.name} == {
                n: c for n, c in before.items() if n != region.name
            }

    def test_edge_trims_land_in_their_region(self):
        dev, edges = self.make()
        for _region, lba in edges:
            dev.write_page(lba, image(b"live"))
        for region, lba in edges:
            trims = region.stats.trims
            dev.trim(lba)
            assert region.stats.trims == trims + 1
            with pytest.raises(KeyError, match=f"unwritten lba {lba} "):
                dev.read_page(lba)
        assert sum(r.stats.trims for r in dev.regions) == len(edges)

    @pytest.mark.parametrize("lba_at", ["negative", "logical_pages"])
    def test_lbas_outside_the_device_raise_naming_the_lba(self, lba_at):
        dev, edges = self.make()
        for _region, lba in edges:
            dev.write_page(lba, image(b"live"))
        lba = -1 if lba_at == "negative" else dev.logical_pages
        before = self.counters(dev)
        calls = [
            lambda: dev.read_page(lba),
            lambda: dev.write_page(lba, image(b"x")),
            lambda: dev.write_delta(lba, 100, b"D"),
            lambda: dev.trim(lba),
            lambda: dev.region_of(lba).appends_on(lba),
        ]
        for call in calls:
            with pytest.raises(KeyError, match=f"lba {lba} not in any region"):
                call()
        assert self.counters(dev) == before

    def test_remount_reads_every_written_lba_back(self):
        """A remount replaces the block managers' mapping dicts: routing
        must read the live one, on the same device and on a new one."""
        dev, edges = self.make()
        for _region, lba in edges:
            dev.write_page(lba, image(lba.to_bytes(2, "little")))
            dev.write_delta(lba, 100, b"D")
        written = {lba: dev.read_page(lba) for _region, lba in edges}
        dev.rebuild_from_media()
        # A write after the remount lands in the new mapping only.
        last = edges[-1][1]
        dev.write_page(last, image(b"after remount"))
        written[last] = dev.read_page(last)
        assert written[last][:13] == b"after remount"

        fresh = NoFtlDevice(dev.chip, over_provisioning=0.25)
        fresh.create_region("hot", blocks=12, ipa=IPA_2x4)
        fresh.create_region("cold", blocks=12, ipa=IPA_2x4)
        fresh.rebuild_from_media()
        for mounted in (dev, fresh):
            for region, lba in edges:
                assert mounted.read_page(lba) == written[lba]
                expected = 0 if lba == last else 1
                assert mounted.region_of(lba).appends_on(lba) == expected


class TestWriteDelta:
    def test_delta_appended_in_place(self):
        dev = make_device()
        dev.create_region("hot", blocks=16, ipa=IPA_2x4)
        dev.write_page(0, image(b"body"))
        assert dev.write_delta(0, 100, b"DELTA") is True
        data = dev.read_page(0)
        assert data[:4] == b"body"
        assert data[100:105] == b"DELTA"
        assert dev.stats.in_place_appends == 1
        assert dev.stats.page_invalidations == 0
        assert dev.stats.host_delta_writes == 1

    def test_delta_transfers_payload_plus_crc_slot(self):
        dev = make_device()
        dev.create_region("hot", blocks=16, ipa=IPA_2x4)
        dev.write_page(0, image(b"body"))
        before = dev.stats.host_bytes_written
        dev.write_delta(0, 100, b"DELTA")
        # The append ships the payload and its 8-byte OOB CRC slot —
        # both cross the bus, both wear the page.
        assert dev.stats.host_bytes_written - before == 5 + ECC_SLOT_SIZE

    def test_oversized_delta_refused(self):
        # m_bytes = 4: a delta-record can hold at most
        # 1 + PAIR_SIZE * m_bytes + DELTA_METADATA_SIZE payload bytes.
        dev = make_device()
        dev.create_region("hot", blocks=16, ipa=IPA_2x4)
        dev.write_page(0, image(b"body"))
        cap = 1 + PAIR_SIZE * IPA_2x4.m_bytes + DELTA_METADATA_SIZE
        assert dev.write_delta(0, 100, b"x" * cap) is True
        assert dev.write_delta(0, 150, b"x" * (cap + 1)) is False
        # The refusal consumed no append slot and wrote nothing.
        assert dev.stats.host_delta_writes == 1
        assert dev.write_delta(0, 150, b"ok") is True

    def test_delta_on_non_ipa_region_refused(self):
        dev = make_device()
        dev.create_region("cold", blocks=16)
        dev.write_page(0, image(b"body"))
        assert dev.write_delta(0, 100, b"DELTA") is False

    def test_delta_on_unmapped_lba_refused(self):
        dev = make_device()
        dev.create_region("hot", blocks=16, ipa=IPA_2x4)
        assert dev.write_delta(0, 100, b"DELTA") is False

    def test_delta_slots_exhaust_at_n(self):
        dev = make_device()
        dev.create_region("hot", blocks=16, ipa=IPA_2x4)
        dev.write_page(0, image(b"body"))
        assert dev.write_delta(0, 100, b"d1") is True
        assert dev.write_delta(0, 110, b"d2") is True
        # N = 2: third append refused, caller must write the page.
        assert dev.write_delta(0, 120, b"d3") is False

    def test_rewrite_resets_append_budget(self):
        dev = make_device()
        region = dev.create_region("hot", blocks=16, ipa=IPA_2x4)
        dev.write_page(0, image(b"body"))
        dev.write_delta(0, 100, b"d1")
        dev.write_delta(0, 110, b"d2")
        dev.write_page(0, image(b"body v2"))
        assert region.appends_on(0) == 0
        assert dev.write_delta(0, 100, b"d1") is True

    def test_delta_into_programmed_range_refused(self):
        dev = make_device()
        dev.create_region("hot", blocks=16, ipa=IPA_2x4)
        dev.write_page(0, image(b"body"))
        assert dev.write_delta(0, 0, b"XXXX") is False  # overlaps body

    def test_delta_ecc_slot_written(self):
        dev = make_device()
        region = dev.create_region("hot", blocks=16, ipa=IPA_2x4)
        dev.write_page(0, image(b"body"))
        dev.write_delta(0, 100, b"DELTA")
        ppn = region.mapping[0]
        _, oob = dev.chip.read_page_with_oob(ppn)
        layout = OobLayout(GEO.oob_size, IPA_2x4.n_records)
        assert slot_matches(layout.read_slot(oob, 1), b"DELTA")
        # Initial-data slot also present.
        assert layout.used_delta_slots(oob) == 1

    def test_odd_mlc_msb_resident_page_refused(self):
        dev = make_device(mode=FlashMode.ODD_MLC)
        dev.create_region("hot", blocks=16, ipa=IPA_2x4)
        for lba in range(8):
            dev.write_page(lba, image(bytes([lba])))
        results = [dev.write_delta(lba, 100, b"d") for lba in range(8)]
        assert any(results) and not all(results)  # only LSB-resident pages


class TestGcAcrossRegions:
    def test_gc_survives_with_appends(self):
        dev = make_device()
        dev.create_region("hot", blocks=24, ipa=IPA_2x4)
        n = dev.logical_pages
        for lba in range(n):
            dev.write_page(lba, image(lba.to_bytes(4, "little")))
        # Mix of appends and rewrites over several rounds.
        for round_ in range(4):
            for lba in range(n):
                if lba % 2 == 0:
                    offset = 64 + round_ * 8
                    assert dev.write_delta(lba, offset, b"dd") or True
                else:
                    dev.write_page(lba, image(lba.to_bytes(4, "little") + bytes([round_])))
        for lba in range(n):
            assert dev.read_page(lba)[:4] == lba.to_bytes(4, "little")

    def test_gc_preserves_appended_deltas(self):
        dev = make_device()
        region = dev.create_region("hot", blocks=24, ipa=IPA_2x4)
        n = dev.logical_pages
        for lba in range(n):
            dev.write_page(lba, image(b"base"))
        dev.write_delta(0, 100, b"KEEP")
        # Force GC by hammering other LBAs.
        for round_ in range(8):
            for lba in range(1, n):
                dev.write_page(lba, image(b"base" + bytes([round_])))
        assert dev.stats.gc_erases > 0
        data = dev.read_page(0)
        assert data[100:104] == b"KEEP"
        # Append budget survived migration bookkeeping.
        assert region.appends_on(0) == 1
