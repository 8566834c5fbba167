"""A write (or trim) the device must refuse is refused before it costs
anything.

Every backend used to count the host write (and its bytes) before looking
at it, and the FTL's out-of-place write allocated a physical page and stamped a
sequence number before the chip rejected an over-long or non-bytes
payload: a refused call moved ``host_writes``, the allocation cursor and
``_seq``.  Validation now comes first and the host write is counted once
it has landed.
"""

from dataclasses import asdict

import pytest

from repro.core.config import IPA_DISABLED, SCHEME_2X4
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.flash.modes import FlashMode
from repro.ftl.ipa_ftl import IpaFtl
from repro.ftl.noftl import NoFtlDevice
from repro.ftl.page_mapping import PageMappingFtl
from repro.stack import BACKENDS as BACKEND_NAMES
from repro.stack import StackSpec

GEO = FlashGeometry(page_size=512, oob_size=128, pages_per_block=8, blocks=16)


def _page_mapping():
    ftl = PageMappingFtl(FlashChip(GEO))
    return ftl, ftl


def _ipa_ftl():
    ftl = IpaFtl(FlashChip(GEO, mode=FlashMode.PSLC))
    return ftl, ftl


def _noftl_region():
    device = NoFtlDevice(FlashChip(GEO, mode=FlashMode.PSLC))
    region = device.create_region(
        "t", blocks=GEO.blocks, ipa=SCHEME_2X4
    )
    return device, region


BACKENDS = {
    "page-mapping": _page_mapping,
    "ipa-ftl": _ipa_ftl,
    "noftl-region": _noftl_region,
}

REFUSED = {
    "lba-past-the-end": (10**9, b"x", KeyError, "1000000000"),
    "lba-negative": (-1, b"x", KeyError, "-1"),
    "payload-too-long": (1, b"x" * (GEO.page_size + 1), ValueError, "513"),
    "payload-not-bytes": (3, "str", TypeError, "str"),
}


def _state(device, blocks: PageMappingFtl) -> dict:
    chip = device.chip
    return {
        "device": asdict(device.stats),
        "flash": asdict(chip.stats),
        "now_us": repr(chip.clock.now_us),
        "breakdown": dict(chip.clock.breakdown_us),
        "active": blocks._active,
        "cursor": blocks._cursor,
        "seq": blocks._seq,
        "free": list(blocks._free),
        "mapping": dict(blocks.mapping),
        "valid": dict(blocks._valid),
    }


@pytest.mark.parametrize("refused", sorted(REFUSED))
@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_a_refused_write_touches_nothing(backend, refused):
    device, blocks = BACKENDS[backend]()
    # LBAs 1 and 3 are mapped, so the IPA FTL's in-place attempt (compare
    # read, reprogram) is on the path of the refused calls too.
    device.write_page(1, b"\x0f" * 100)
    device.write_page(3, b"\xf0" * GEO.page_size)
    assert device.stats.host_writes == 2
    assert device.stats.host_bytes_written == 100 + GEO.page_size
    assert (blocks._cursor, blocks._seq) == (2, 2)
    before = _state(device, blocks)

    lba, payload, error, named = REFUSED[refused]
    with pytest.raises(error, match=named):
        device.write_page(lba, payload)
    assert _state(device, blocks) == before

    device.write_page(1, b"\x0f" * 100)  # and the device still works
    assert device.stats.host_writes == 3
    assert device.read_page(1)[:100] == b"\x0f" * 100


@pytest.mark.parametrize("size", [0, 5, GEO.oob_size - 1, GEO.oob_size + 1, 300])
def test_block_manager_refuses_an_oob_of_the_wrong_size(size):
    """An over-long OOB used to be cut to size without a word, a short one
    was rejected by the chip after a page and a sequence number were spent."""
    chip = FlashChip(GEO)
    blocks = PageMappingFtl(chip)
    with pytest.raises(ValueError, match=f"exactly {GEO.oob_size} bytes, got {size}"):
        blocks._write_page_inner(0, b"data", bytes(size))
    assert (blocks._active, blocks._cursor, blocks._seq) == (None, 0, 0)
    assert chip.stats.page_programs == 0 and not blocks.mapping

    blocks._write_page_inner(0, b"data", b"\xaa" * GEO.oob_size)
    oob = chip.page_at(blocks.mapping[0]).raw_oob()
    assert oob[: blocks._meta_off] == b"\xaa" * blocks._meta_off


def test_block_ids_are_checked_where_the_manager_is_built():
    """Allocation composes ppns from the block ids it was given."""
    from repro.flash.errors import IllegalAddressError

    with pytest.raises(IllegalAddressError, match="block 16"):
        PageMappingFtl(FlashChip(GEO), block_ids=range(8, 17))


@pytest.mark.parametrize("lba_at", ["negative", "logical_pages"])
@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_a_trim_outside_the_device_is_refused_like_a_write(backend, lba_at):
    """``trim`` used to accept any LBA on three backends: the page-mapping
    FTLs popped a missing key and IPL counted a trim.  It now raises the
    KeyError a write of the same LBA raises, before touching anything."""
    spec = StackSpec(
        architecture=backend,
        scheme=SCHEME_2X4 if backend.startswith("ipa") else IPA_DISABLED,
        geometry=FlashGeometry(
            page_size=2048, oob_size=128, pages_per_block=16, blocks=16
        ),
    )
    _db, manager = spec.build()
    device = manager.device
    device.write_page(0, b"\x0f" * 100)
    lba = -1 if lba_at == "negative" else device.logical_pages
    with pytest.raises(KeyError) as refused_write:
        device.write_page(lba, b"x")
    before = (asdict(device.stats), asdict(device.chip.stats))

    with pytest.raises(KeyError) as refused_trim:
        device.trim(lba)
    assert str(refused_trim.value) == str(refused_write.value)
    assert str(lba) in str(refused_trim.value)
    assert (asdict(device.stats), asdict(device.chip.stats)) == before
    assert device.read_page(0)[:100] == b"\x0f" * 100
