"""``ChangeTracker`` against the per-byte spec in ``tests.reference.core``:
the same state after every call, the same delta-records, the same
errors.  A stamp (``on_stamp``) is, by the spec, one ``on_write`` of the
field's little-endian bytes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PAGE_FOOTER_SIZE, PAGE_HEADER_SIZE, SCHEME_2X4, IpaScheme
from repro.core.tracker import ChangeTracker
from tests.reference.core import RefChangeTracker, ref_run_changes

HEADER_END = PAGE_HEADER_SIZE
# A small page keeps every region and both boundaries within reach of a
# random write: header [0, 24), body [24, 60), delta area + footer
# [60, 80).
BODY_END = 60
PAGE_END = 80
# A page with room for record-sized writes: header [0, 24), body
# [24, 300), delta area + footer [300, 340).
BIG_BODY_END = 300
BIG_PAGE_END = 340
#: Where a page keeps its LSN (8 bytes, inside the header).
LSN = 6

# Two-letter alphabets make equal bytes (and wholly equal writes) common.
_byte_pairs = st.lists(
    st.tuples(st.sampled_from([0, 1, 0xFF]), st.sampled_from([0, 1, 0xFF])),
    min_size=1,
    max_size=PAGE_END,
)


@st.composite
def _writes(draw):
    pairs = draw(_byte_pairs)
    offset = draw(st.integers(min_value=0, max_value=PAGE_END - len(pairs)))
    if draw(st.booleans()) and draw(st.booleans()):
        pairs = [(a, a) for a, _b in pairs]  # an equal write
    old = bytes(a for a, _b in pairs)
    new = bytes(b for _a, b in pairs)
    return ("write", offset, old, new)


# Erased bytes, zeros and a few values in between: 0xFF on either side of
# a write, equal bytes inside a changed span, wholly equal spans.
_span_bytes = st.sampled_from([0xFF, 0xFF, 0x00, 0x01, 0x7F, 0xFE])


@st.composite
def _span_writes(draw):
    size = draw(
        st.one_of(
            st.integers(min_value=1, max_value=16),
            st.integers(min_value=17, max_value=200),
            st.integers(min_value=17, max_value=200),
        )
    )
    # A few anchors (the region boundaries among them) plus a small shift
    # make writes of one op overlap and straddle all the time.
    anchor = draw(st.sampled_from([0, HEADER_END, 60, 150, BIG_BODY_END]))
    offset = anchor + draw(st.integers(min_value=-20, max_value=20))
    offset = max(0, min(offset, BIG_PAGE_END - size))
    old = bytes(draw(st.lists(_span_bytes, min_size=size, max_size=size)))
    kind = draw(st.sampled_from(["any", "few", "erased", "equal"]))
    if kind == "any":
        new = bytes(draw(st.lists(_span_bytes, min_size=size, max_size=size)))
    elif kind == "few":  # a long span that changes at most M-ish bytes
        new = bytearray(old)
        for _ in range(draw(st.integers(min_value=1, max_value=5))):
            new[draw(st.integers(min_value=0, max_value=size - 1))] ^= 0x81
        new = bytes(new)
    elif kind == "erased":  # the insert: a record over erased free space
        old = b"\xff" * size
        new = bytes(draw(st.lists(_span_bytes, min_size=size, max_size=size)))
    else:
        new = old
    return ("write", offset, old, new)


_stamp_bytes = st.sampled_from([0x00, 0x01, 0xFF])


@st.composite
def _stamps(draw, body_end, page_end):
    """One header/footer integer field: the page's LSN, counts or
    checksum, or any other field wholly inside one of the two regions."""
    width = draw(st.sampled_from([1, 2, 4, 8]))
    if draw(st.booleans()):
        offset = draw(
            st.one_of(
                st.sampled_from([6, 14, 16]),  # LSN, slot count, free lower
                st.integers(min_value=0, max_value=HEADER_END - width),
            )
        )
    else:
        offset = draw(st.integers(min_value=body_end, max_value=page_end - width))
    old = bytes(draw(st.lists(_stamp_bytes, min_size=width, max_size=width)))
    new = bytes(draw(st.lists(_stamp_bytes, min_size=width, max_size=width)))
    if draw(st.booleans()) and draw(st.booleans()):
        new = old  # an unchanged field
    return (
        "stamp",
        offset,
        width,
        int.from_bytes(old, "little"),
        int.from_bytes(new, "little"),
    )


#: LSNs just below and at byte boundaries (stamps of every width, with
#: and without a zero byte between changed ones), and any u64.
_lsns = st.one_of(
    st.sampled_from(
        [0, 1, 0xF8, 0x100, 0xFFF8, 0x10000, 0xFFFFF8, 0x000100FF, 0x01000000,
         2**32 - 8, 2**64 - 1]
    ),
    st.integers(min_value=0, max_value=2**64 - 1),
)


@st.composite
def _whole_ops(draw, body_end):
    """A whole operation through ``write_op``: one body write (0-16
    bytes, or a record-sized span) and the LSN's stamp."""
    size = draw(
        st.one_of(
            st.integers(min_value=0, max_value=16),
            st.integers(min_value=17, max_value=body_end - HEADER_END),
        )
    )
    offset = draw(st.integers(min_value=HEADER_END, max_value=body_end - size))
    old = bytes(draw(st.lists(_span_bytes, min_size=size, max_size=size)))
    new = bytearray(old)
    for _ in range(draw(st.integers(min_value=0, max_value=size))):
        new[draw(st.integers(min_value=0, max_value=size - 1))] = draw(_span_bytes)
    old_lsn, lsn = draw(_lsns), draw(_lsns)
    return ("op", offset, old, bytes(new), old_lsn, lsn, draw(st.booleans()))


def _actions(writes, stamps, ops, max_size):
    return st.lists(
        st.one_of(
            writes,
            writes,
            writes,
            stamps,
            ops,
            st.just(("begin",)),
            st.just(("end",)),
            st.tuples(st.just("flushed"), st.integers(min_value=0, max_value=2)),
        ),
        max_size=max_size,
    )


#: name -> (body end, action strategy): byte-level writes on a tiny page,
#: and record-sized spans (17-200 B, the long-write path) on a 340-byte
#: one; both mixed with stamps, which the writes overlap often (the
#: header is 24 bytes, the delta area + footer 20 and 40), and with
#: whole one-write operations.
_WRITE_STRATEGIES = {
    "bytes": (
        BODY_END,
        _actions(_writes(), _stamps(BODY_END, PAGE_END), _whole_ops(BODY_END), 30),
    ),
    "spans": (
        BIG_BODY_END,
        _actions(
            _span_writes(),
            _stamps(BIG_BODY_END, BIG_PAGE_END),
            _whole_ops(BIG_BODY_END),
            25,
        ),
    ),
}

_schemes = st.sampled_from(
    [SCHEME_2X4, IpaScheme(1, 1), IpaScheme(3, 2), IpaScheme(2, 15), IpaScheme(0, 0)]
)

_META = (b"h" * PAGE_HEADER_SIZE, b"f" * PAGE_FOOTER_SIZE)


def _last_op_changes(tracker):
    """The spec's offset -> value dict; a ``ChangeTracker``'s runs, checked
    sorted, disjoint and nonempty, expanded into one."""
    if isinstance(tracker, RefChangeTracker):
        return tracker.last_op_changes
    return _run_changes(tracker.last_op_runs)


def _run_changes(runs):
    assert all(data for _offset, data in runs), runs
    for (offset, data), (after, _data) in zip(runs, runs[1:]):
        assert offset + len(data) <= after, runs
    return ref_run_changes(runs)


def _whole_op(tracker, offset, old, new, old_lsn, lsn, runs):
    """``write_op``, or the spec's bracket of one write and the LSN stamp;
    returns the size and, with ``runs``, the op's changes."""
    if isinstance(tracker, RefChangeTracker):
        tracker.begin_op()
        tracker.on_write(offset, old, new)
        tracker.on_stamp(LSN, 8, old_lsn, lsn)
        return tracker.end_op(), dict(tracker.last_op_changes) if runs else None
    size, cut = tracker.write_op(offset, old, new, LSN, old_lsn, lsn, runs)
    assert (cut is None) is not runs
    return size, None if cut is None else _run_changes(cut)


def _observable(tracker):
    return {
        "records": tracker.records,
        "out_of_place": tracker.out_of_place,
        "meta_changed": tracker.meta_changed,
        "net_changed_bytes": tracker.net_changed_bytes,
        "net_changed_offsets": tracker.net_changed_offsets,
        "meta_changed_offsets": tracker.meta_changed_offsets,
        "op_sizes": tracker.op_sizes,
        "last_op_changes": _last_op_changes(tracker),
        "ipa_eligible": tracker.ipa_eligible,
        "dirty": tracker.dirty,
        "delta_records": None
        if tracker.out_of_place
        else tracker.build_delta_records(*_META),
    }


def _apply_action(tracker, action):
    """Run one action; returns what it returned or the error it raised."""
    try:
        if action[0] == "write":
            return tracker.on_write(*action[1:])
        if action[0] == "stamp":
            return tracker.on_stamp(*action[1:])
        if action[0] == "op":
            return _whole_op(tracker, *action[1:])
        if action[0] == "begin":
            return tracker.begin_op()
        if action[0] == "end":
            return tracker.end_op()
        return tracker.reset_after_flush(action[1])
    except RuntimeError as error:  # nested begin_op
        return type(error), str(error)


def _run(trackers, *actions):
    for action in actions:
        for tracker in trackers:
            _apply_action(tracker, action)


class TestChangeTracker:
    @pytest.mark.parametrize("strategy", sorted(_WRITE_STRATEGIES))
    @given(
        scheme=_schemes,
        existing=st.integers(min_value=0, max_value=2),
        data=st.data(),
    )
    @settings(max_examples=350, deadline=None)
    def test_same_state_after_every_call(self, strategy, scheme, existing, data):
        """``watched`` is compared after every call; ``unwatched`` only at
        the end, so whatever it defers stays deferred across calls."""
        body_end, actions = _WRITE_STRATEGIES[strategy]
        ref = RefChangeTracker(scheme, existing, HEADER_END, body_end)
        watched = ChangeTracker(scheme, existing, HEADER_END, body_end)
        unwatched = ChangeTracker(scheme, existing, HEADER_END, body_end)
        assert _observable(watched) == _observable(ref)
        for action in data.draw(actions):
            result = _apply_action(ref, action)
            assert _apply_action(watched, action) == result
            assert _apply_action(unwatched, action) == result
            assert _observable(watched) == _observable(ref), action
        assert _observable(unwatched) == _observable(ref)

    @pytest.mark.parametrize("bracketed", [False, True])
    @pytest.mark.parametrize(
        "offset, length",
        [
            (HEADER_END - 2, 4),  # straddles header_end
            (BODY_END - 2, 4),  # straddles body_end
            (0, PAGE_END),  # the B+-tree's whole-page rewrite
            (HEADER_END, BODY_END - HEADER_END),  # exactly the body
            (HEADER_END + 1, SCHEME_2X4.m_bytes + 1),  # one byte past M
        ],
    )
    def test_boundary_writes(self, bracketed, offset, length):
        trackers = [
            cls(SCHEME_2X4, 0, HEADER_END, BODY_END)
            for cls in (RefChangeTracker, ChangeTracker)
        ]
        write = ("write", offset, b"\x00" * length, b"\x01" * length)
        _run(trackers, *([("begin",), write, ("end",)] if bracketed else [write]))
        assert _observable(trackers[1]) == _observable(trackers[0])

    @pytest.mark.parametrize(
        "scheme", [SCHEME_2X4, IpaScheme(0, 0)], ids=["ipa", "out-of-place"]
    )
    @pytest.mark.parametrize(
        "old_lsn, lsn",
        [
            (0, 1),
            (0xFF, 0x100),  # the first byte's carry
            (0xFFFF, 0x10000),
            (0x000100FF, 0x01000000),  # XOR 0x010100FF: a zero byte between
            (2**32 - 8, 2**32 + 1),
            (7, 7),  # no stamp at all
        ],
    )
    def test_a_whole_op_stamps_lsns_of_every_width(self, scheme, old_lsn, lsn):
        trackers = [
            cls(scheme, 0, HEADER_END, BODY_END)
            for cls in (RefChangeTracker, ChangeTracker)
        ]
        op = ("op", 30, b"\x00\x01\x02\x03", b"\x00\x05\x02\x07", old_lsn, lsn, True)
        ref, new = (_apply_action(tracker, op) for tracker in trackers)
        assert new == ref and ref[0] == 2
        assert _observable(trackers[1]) == _observable(trackers[0])

    def test_a_whole_op_inside_an_open_one_is_refused_untouched(self):
        trackers = [
            cls(SCHEME_2X4, 0, HEADER_END, BODY_END)
            for cls in (RefChangeTracker, ChangeTracker)
        ]
        op = ("op", 30, b"\x00", b"\x01", 1, 2, True)
        _run(trackers, ("begin",), ("write", 40, b"\x00", b"\x09"))
        ref, new = (_apply_action(tracker, op) for tracker in trackers)
        assert new == ref
        assert ref == (RuntimeError, "nested update operations are not supported")
        _run(trackers, ("end",))
        assert _observable(trackers[1]) == _observable(trackers[0])
        assert trackers[1].op_sizes == [1]

    def test_equal_write_returns_before_looking_at_the_region(self):
        tracker = ChangeTracker(SCHEME_2X4, 0, HEADER_END, BODY_END)
        tracker.on_write(HEADER_END - 2, b"same", b"same")  # straddling
        tracker.on_write(HEADER_END, b"same", b"same")  # unbracketed body
        assert not tracker.dirty and not tracker.out_of_place

    def test_end_op_returns_the_op_size_it_recorded(self):
        tracker = ChangeTracker(SCHEME_2X4, 0, HEADER_END, BIG_BODY_END)
        assert tracker.end_op() == 0  # no operation open
        tracker.begin_op()
        assert tracker.end_op() == 0 and tracker.op_sizes == []
        tracker.begin_op()
        tracker.on_write(30, b"\xff" * 50, b"r" * 49 + b"\xff")  # deferred
        tracker.on_write(100, b"\x00\x00", b"\x01\x00")
        tracker.on_write(4, b"\x00", b"\x09")  # header: free of charge
        assert tracker.end_op() == 50 and tracker.op_sizes == [50]

    def test_deferred_spans_do_not_pile_up_on_a_resident_page(self):
        """Record-sized spans, over bytes already counted, cost one byte
        map the size of the page body, however many arrive."""
        ref = RefChangeTracker(SCHEME_2X4, 0, HEADER_END, BIG_BODY_END)
        new = ChangeTracker(SCHEME_2X4, 0, HEADER_END, BIG_BODY_END)
        for i in range(500):
            old = bytes([i % 251]) * 100
            span = bytes([(i + 1) % 251]) * 50 + old[50:]
            _run((ref, new), ("begin",), ("write", 30 + i % 100, old, span), ("end",))
            assert len(new._net_map) == BIG_BODY_END
            assert not new._net
        assert _observable(new) == _observable(ref)

    def test_small_writes_before_and_after_the_map_count_once(self):
        trackers = [
            cls(SCHEME_2X4, 0, HEADER_END, BIG_BODY_END)
            for cls in (RefChangeTracker, ChangeTracker)
        ]
        _run(
            trackers,
            ("begin",),
            ("write", 40, b"\x00\x00", b"\x01\x01"),  # the set, before
            ("end",),
            ("begin",),
            ("write", 30, b"\xff" * 50, b"r" * 50),  # creates the map
            ("write", 100, b"\x00", b"\x02"),  # the set, after
            ("end",),
            ("begin",),
            ("write", 60, b"r" * 40, b"s" * 40),  # half over the map
            ("write", 41, b"\x01\x00", b"\x03\x04"),  # over both
            ("end",),
        )
        # 30-79 (40 and 41 among them), 100, and 80-99.
        assert trackers[1].net_changed_bytes == 50 + 1 + 20
        assert _observable(trackers[1]) == _observable(trackers[0])

    @pytest.mark.parametrize(
        "write_offset, old, new",
        [
            (6, b"\x07", b"\x08"),  # the stamped LSN's first byte again
            (12, b"\x00\x00\x00", b"\x00\x05\x00"),  # its tail + slot count
            (20, b"\x00", b"\x01"),  # beside it: no overlap
        ],
    )
    def test_a_header_write_after_a_stamp_of_the_same_op(
        self, write_offset, old, new
    ):
        """The WAL replays an op's bytes in page order of writing: a byte
        written after a stamp of the same op must win over the stamp."""
        trackers = [
            cls(SCHEME_2X4, 0, HEADER_END, BODY_END)
            for cls in (RefChangeTracker, ChangeTracker)
        ]
        _run(
            trackers,
            ("begin",),
            ("stamp", 6, 8, 0, 7),
            ("write", write_offset, old, new),
            ("stamp", 14, 4, 0, 0x00180001),
            ("end",),
        )
        assert _observable(trackers[1]) == _observable(trackers[0])
        assert _last_op_changes(trackers[1])[6] == (7 if write_offset != 6 else 8)

    def test_stamps_outside_an_op_and_across_a_flush(self):
        trackers = [
            cls(SCHEME_2X4, 1, HEADER_END, BODY_END)
            for cls in (RefChangeTracker, ChangeTracker)
        ]
        _run(trackers, ("stamp", BODY_END + 12, 4, 0xDEAD, 0xBEEF))
        assert _observable(trackers[1]) == _observable(trackers[0])
        assert trackers[1].meta_changed_offsets == {BODY_END + 12, BODY_END + 13}
        _run(trackers, ("flushed", 2), ("begin",), ("stamp", 6, 8, 1, 1), ("end",))
        assert _observable(trackers[1]) == _observable(trackers[0])
        assert not trackers[1].meta_changed and not trackers[1].dirty

    @pytest.mark.parametrize(
        "second_offset, second_old, second_new",
        [
            (40, b"rrrr", b"r\xffzr"),  # overlaps: one byte back to erased
            (28, b"\xffrrr", b"zzzz"),  # overlaps the front edge
            (79, b"r\xff", b"qq"),  # overlaps the back edge
            (80, b"\xff" * 4, b"abcd"),  # adjacent, no overlap
            (40, b"r" * 30, b"s" * 30),  # a second record-sized span inside
        ],
    )
    def test_a_later_write_of_the_op_over_the_deferred_span(
        self, second_offset, second_old, second_new
    ):
        trackers = [
            cls(IpaScheme(0, 0), 0, HEADER_END, BIG_BODY_END)
            for cls in (RefChangeTracker, ChangeTracker)
        ]
        _run(
            trackers,
            ("begin",),
            ("write", 30, b"\xff" * 50, b"r" * 50),
            ("write", second_offset, second_old, second_new),
            ("end",),
        )
        assert _observable(trackers[1]) == _observable(trackers[0])
