"""End-to-end IPA round-trip property: track -> encode -> flash -> rebuild.

For random sequences of conforming update operations on a page, the full
pipeline — change tracking, delta-record encoding, physical append into
erased slots, fetch-time reconstruction — must reproduce the buffer
page byte-for-byte.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PAGE_HEADER_SIZE, SCHEME_2X4, IpaScheme
from repro.core.reconstruct import reconstruct
from repro.core.tracker import ChangeTracker
from repro.flash.cellmodel import slc_transition_legal
from repro.storage.layout import SlottedPage
from repro.storage.manager import compose_append_image

PAGE_SIZE = 1024

op_lists = st.lists(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=400),  # offset in record
            st.integers(min_value=0, max_value=255),
        ),
        min_size=1,
        max_size=4,  # <= M
    ),
    min_size=0,
    max_size=2,  # <= N
)


@given(ops=op_lists)
@settings(max_examples=60, deadline=None)
def test_track_encode_apply_roundtrip(ops):
    scheme = SCHEME_2X4
    page = SlottedPage.fresh(1, PAGE_SIZE, scheme)
    slot = page.insert(b"\x11" * 420)
    page.store_checksum()
    flash_image = page.to_bytes()  # pretend this is on Flash

    tracker = ChangeTracker(scheme, 0, PAGE_HEADER_SIZE, page.delta_start)
    page.set_observer(tracker)
    for op in ops:
        tracker.begin_op()
        for offset, value in op:
            page.update(slot, offset, bytes([value]))
        tracker.end_op()

    if tracker.out_of_place:
        return  # coalescing made the op exceed M? can't happen, but guard

    page.store_checksum()
    current = page.to_bytes()
    records = tracker.build_delta_records(
        current[:PAGE_HEADER_SIZE], current[page.footer_start :]
    )

    _offset, composed = compose_append_image(
        flash_image, [record.encode(scheme) for record in records], scheme, 0
    )
    # The composed image must be programmable over the flash image.
    assert slc_transition_legal(flash_image, composed)

    rebuilt, count = reconstruct(composed, scheme)
    assert count == len(records)
    assert bytes(rebuilt) == current

    rebuilt_page = SlottedPage(bytearray(rebuilt), scheme)
    assert rebuilt_page.verify_checksum()
    assert rebuilt_page.read(slot) == page.read(slot)


@given(
    n=st.integers(min_value=1, max_value=4),
    m=st.integers(min_value=1, max_value=8),
    updates=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=100),
            st.integers(min_value=0, max_value=255),
        ),
        min_size=1,
        max_size=30,
    ),
)
@settings(max_examples=40, deadline=None)
def test_conformance_decision_is_safe(n, m, updates):
    """Whatever the tracker decides, the data path stays correct:
    conformant pages round-trip via deltas; others are flagged."""
    scheme = IpaScheme(n, m)
    page = SlottedPage.fresh(1, PAGE_SIZE, scheme)
    slot = page.insert(b"\x00" * 120)
    page.store_checksum()
    flash_image = page.to_bytes()
    tracker = ChangeTracker(scheme, 0, PAGE_HEADER_SIZE, page.delta_start)
    page.set_observer(tracker)

    for offset, value in updates:
        tracker.begin_op()
        page.update(slot, offset, bytes([value]))
        tracker.end_op()
        if tracker.out_of_place:
            break

    if tracker.out_of_place:
        return
    page.store_checksum()
    current = page.to_bytes()
    records = tracker.build_delta_records(
        current[:PAGE_HEADER_SIZE], current[page.footer_start :]
    )
    assert len(records) <= n
    _offset, composed = compose_append_image(
        flash_image, [record.encode(scheme) for record in records], scheme, 0
    )
    rebuilt, _count = reconstruct(composed, scheme)
    assert bytes(rebuilt) == current
