"""The batched read entry point, ``NoFtlDevice.read_many``, against per-op reads.

Trace replay reads a run of fetch misses in one call.  The contract
under test (docs/performance.md, round 2): the batched call is
*outcome-identical* — same data, same simulated clock and breakdown,
same device/flash counters, same error type at the same op — only the
number of Python calls changes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.flash.modes import FlashMode
from repro.ftl.noftl import IpaRegionConfig, NoFtlDevice

GEO = FlashGeometry(page_size=2048, oob_size=64, pages_per_block=16, blocks=12)


def _page(tag: int, size: int = 2048) -> bytes:
    return bytes([tag & 0xFF]) * size


def _fingerprint(ftl) -> tuple:
    clock = ftl.chip.clock
    return (
        ftl.stats.snapshot().__dict__,
        ftl.chip.stats.snapshot().__dict__,
        repr(clock.now_us),
        sorted((k, repr(v)) for k, v in clock.breakdown_us.items()),
    )


class TestNoFtlDevice:
    def _loaded(self) -> NoFtlDevice:
        device = NoFtlDevice(FlashChip(GEO, mode=FlashMode.SLC, seed=5))
        device.create_region(
            "hot", blocks=6, ipa=IpaRegionConfig(n_records=2, m_bytes=16)
        )
        device.create_region("cold", blocks=6, ipa=None)
        for lba in range(0, 20):
            device.write_page(lba, _page(lba))
        cold_base = device.regions[1].lba_base
        for lba in range(cold_base, cold_base + 10):
            device.write_page(lba, _page(lba))
        return device

    def test_read_many_matches_per_op(self):
        lbas = [3, 0, 17, 17, 9, 13]
        a = self._loaded()
        per_op = [a.read_page(lba) for lba in lbas]
        b = self._loaded()
        batched = b.read_many(lbas)
        assert batched == per_op
        assert _fingerprint(a) == _fingerprint(b)

    def test_read_many_accepts_numpy_lbas(self):
        device = self._loaded()
        out = device.read_many(np.array([1, 2, 3], dtype=np.int64))
        assert out == [_page(1), _page(2), _page(3)]

    def test_read_many_unwritten_lba_raises_after_earlier_reads(self):
        # LBA 25 is routed to the hot region but was never written.
        a = self._loaded()
        with pytest.raises(KeyError):
            for lba in [4, 5, 25]:
                a.read_page(lba)
        b = self._loaded()
        with pytest.raises(KeyError, match="unwritten lba 25"):
            b.read_many([4, 5, 25])
        # The two reads before the failure happened and were charged.
        assert _fingerprint(a) == _fingerprint(b)
        assert b.regions[0].stats.host_reads == 2

    def test_read_many_spans_regions(self):
        cold_base = self._loaded().regions[1].lba_base
        lbas = [0, cold_base + 3, 7, cold_base, 19]
        a = self._loaded()
        per_op = [a.read_page(lba) for lba in lbas]
        b = self._loaded()
        batched = b.read_many(lbas)
        assert batched == per_op
        assert repr(a.chip.clock.now_us) == repr(b.chip.clock.now_us)
        for ra, rb in zip(a.regions, b.regions):
            assert ra.stats.snapshot().__dict__ == rb.stats.snapshot().__dict__

    def test_read_many_unrouted_lba_raises_after_earlier_reads(self):
        device = self._loaded()
        with pytest.raises(KeyError, match="not in any region"):
            device.read_many([0, 1, 10_000])
        assert device.regions[0].stats.host_reads == 2
