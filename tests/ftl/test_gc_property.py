"""Property-based fuzzing of the page-mapping FTL against a shadow map.

Random sequences of writes and trims with GC firing constantly; after
every sequence the mapping must agree with a plain dict and the internal
valid-counts must reconcile with the reverse map.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.ftl.page_mapping import PageMappingFtl

GEO = FlashGeometry(page_size=128, oob_size=32, pages_per_block=4, blocks=20)

ops = st.lists(
    st.tuples(
        st.sampled_from(["write", "trim", "read"]),
        st.integers(min_value=0, max_value=39),
        st.integers(min_value=0, max_value=255),
    ),
    min_size=10,
    max_size=250,
)


@given(sequence=ops)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_mapping_matches_shadow(sequence):
    ftl = PageMappingFtl(FlashChip(GEO), over_provisioning=0.25)
    shadow: dict[int, bytes] = {}
    for op, lba, value in sequence:
        if lba >= ftl.logical_pages:
            continue
        if op == "write":
            payload = bytes([value]) * 16
            ftl.write_page(lba, payload)
            shadow[lba] = payload
        elif op == "trim":
            ftl.trim(lba)
            shadow.pop(lba, None)
        else:  # read
            if lba in shadow:
                assert ftl.read_page(lba)[:16] == shadow[lba]

    # Full final audit.
    for lba, payload in shadow.items():
        assert ftl.read_page(lba)[:16] == payload
    assert len(ftl.mapping) == len(shadow)

    # Internal invariant: per-block valid counts equal the reverse map.
    manager = ftl
    from collections import Counter

    per_block = Counter(
        ppn // GEO.pages_per_block for ppn in manager._rmap
    )
    for block_id in manager.block_ids:
        assert manager._valid[block_id] == per_block.get(block_id, 0)


@given(sequence=ops)
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_invalidation_accounting(sequence):
    """Invalidations == overwrites + trims of live pages, exactly."""
    ftl = PageMappingFtl(FlashChip(GEO), over_provisioning=0.25)
    live: set[int] = set()
    expected_invalidations = 0
    for op, lba, value in sequence:
        if lba >= ftl.logical_pages:
            continue
        if op == "write":
            if lba in live:
                expected_invalidations += 1
            ftl.write_page(lba, bytes([value]))
            live.add(lba)
        elif op == "trim":
            if lba in live:
                expected_invalidations += 1
            ftl.trim(lba)
            live.discard(lba)
    assert ftl.stats.page_invalidations == expected_invalidations
