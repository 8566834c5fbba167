"""``ChangeTracker`` against the per-byte spec in ``tests.reference.core``:
the same state after every call, the same delta-records, the same
errors.  A stamp (``on_stamp``) is, by the spec, one ``on_write`` of the
field's little-endian bytes."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PAGE_FOOTER_SIZE, PAGE_HEADER_SIZE, SCHEME_2X4, IpaScheme
from repro.core.tracker import ChangeTracker, _span_runs
from tests.reference.core import RefChangeTracker, ref_run_changes, ref_span_runs

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


_erased_or_any = st.one_of(st.just(b"\xff" * 4), st.binary(min_size=4, max_size=4))


@st.composite
def _insert_ops(draw, body_end, page_end):
    """A whole insert through ``insert_op``: a record (1-16 bytes or
    longer; over erased bytes, over any, a few bytes off them or equal to
    them), its 4-byte slot (after it, beside it, before it, over it or
    anywhere), the slot count + free lower stamp and the LSN stamp (where
    a page keeps them, or anywhere in the header or the tail)."""
    size = draw(
        st.one_of(
            st.integers(min_value=1, max_value=16),
            st.integers(min_value=17, max_value=body_end - HEADER_END - 4),
        )
    )
    offset = draw(
        st.one_of(
            st.integers(min_value=HEADER_END, max_value=body_end - 4 - size),
            st.integers(min_value=0, max_value=page_end - size),
        )
    )
    end = offset + size
    kind = draw(st.sampled_from(["erased", "erased", "few", "equal", "any"]))
    old = b"\xff" * size
    if kind == "any":
        old = bytes(draw(st.lists(_span_bytes, min_size=size, max_size=size)))
    new = bytes(draw(st.lists(_span_bytes, min_size=size, max_size=size)))
    if kind == "few":  # at most a handful of changed bytes
        new = bytearray(old)
        for _ in range(draw(st.integers(min_value=1, max_value=5))):
            new[draw(st.integers(min_value=0, max_value=size - 1))] ^= 0x81
        new = bytes(new)
    elif kind == "equal":
        new = old
    where = draw(st.sampled_from(["after", "after", "beside", "before", "over", "any"]))
    slot_at = {
        "after": draw(st.integers(min_value=end, max_value=max(end, body_end - 4))),
        "beside": end,
        "before": offset - 4,
        "over": offset + draw(st.integers(min_value=-3, max_value=size - 1)),
        "any": draw(st.integers(min_value=0, max_value=page_end - 4)),
    }[where]
    slot_at = max(0, min(slot_at, page_end - 4))
    page_layout = draw(st.booleans()) or draw(st.booleans())
    count_at = 14 if page_layout else draw(_stamp_offsets(4, body_end, page_end))
    lsn_at = LSN if page_layout else draw(_stamp_offsets(8, body_end, page_end))
    return (
        "insert",
        offset,
        old,
        new,
        slot_at,
        draw(_erased_or_any),
        draw(_erased_or_any),
        count_at,
        draw(st.integers(min_value=0, max_value=2**32 - 1)),
        draw(st.integers(min_value=0, max_value=2**32 - 1)),
        lsn_at,
        draw(_lsns),
        draw(_lsns),
        draw(st.booleans()),
    )


def _stamp_offsets(width, body_end, page_end):
    """Where a ``width``-byte field lies wholly in the header or the tail."""
    return st.one_of(
        st.integers(min_value=0, max_value=HEADER_END - width),
        st.integers(min_value=body_end, max_value=page_end - width),
    )


def _actions(writes, stamps, ops, inserts, max_size):
    return st.lists(
        st.one_of(
            writes,
            writes,
            writes,
            stamps,
            ops,
            inserts,
            st.just(("begin",)),
            st.just(("end",)),
            st.tuples(st.just("flushed"), st.integers(min_value=0, max_value=2)),
        ),
        max_size=max_size,
    )


#: name -> (body end, action strategy): byte-level writes on a tiny page,
#: and record-sized spans (17-200 B, the long-write path) on a 340-byte
#: one; both mixed with stamps, which the writes overlap often (the
#: header is 24 bytes, the delta area + footer 20 and 40), with whole
#: one-write operations and with whole inserts.
_WRITE_STRATEGIES = {
    "bytes": (
        BODY_END,
        _actions(
            _writes(),
            _stamps(BODY_END, PAGE_END),
            _whole_ops(BODY_END),
            _insert_ops(BODY_END, PAGE_END),
            30,
        ),
    ),
    "spans": (
        BIG_BODY_END,
        _actions(
            _span_writes(),
            _stamps(BIG_BODY_END, BIG_PAGE_END),
            _whole_ops(BIG_BODY_END),
            _insert_ops(BIG_BODY_END, BIG_PAGE_END),
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


def _insert_bracket(tracker, offset, old, new, slot_at, old_slot, slot,
                    count_at, old_count, new_count, at, old_stamp, stamp):
    """``insert_op``'s definition: the six calls it stands for; returns
    the size ``end_op`` returns."""
    tracker.begin_op()
    tracker.on_write(offset, old, new)
    tracker.on_write(slot_at, old_slot, slot)
    tracker.on_stamp(count_at, 4, old_count, new_count)
    tracker.on_stamp(at, 8, old_stamp, stamp)
    return tracker.end_op()


def _whole_insert(tracker, *args):
    """``insert_op``, or the spec's six-call bracket; returns the size and,
    with ``runs`` (the last argument), the op's changes."""
    *args, runs = args
    if isinstance(tracker, RefChangeTracker):
        size = _insert_bracket(tracker, *args)
        return size, dict(tracker.last_op_changes) if runs else None
    size, cut = tracker.insert_op(*args, runs)
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
        if action[0] == "insert":
            return _whole_insert(tracker, *action[1:])
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


def _bracket_insert(tracker, *args):
    """A ``ChangeTracker`` made to run ``insert_op``'s definition: the size
    and, with ``runs``, its :attr:`~ChangeTracker.last_op_runs`."""
    *args, runs = args
    size = _insert_bracket(tracker, *args)
    return size, tracker.last_op_runs if runs else None


def _one_of_each(tracker, action, bracketed):
    """Apply ``action``; an insert goes through ``insert_op`` or, with
    ``bracketed``, through its six calls, and returns its runs as is."""
    if action[0] != "insert":
        return _apply_action(tracker, action)
    try:
        if bracketed:
            return _bracket_insert(tracker, *action[1:])
        return tracker.insert_op(*action[1:])
    except RuntimeError as error:  # an operation is open
        return type(error), str(error)


#: A record over erased free space, its slot over erased bytes, and the
#: page's stamps: slot 0 at free lower 24 -> slot 1 at 124, LSN 0 -> 1.
_RECORD = bytes(range(100))
_INSERT = (
    "insert", HEADER_END, b"\xff" * 100, _RECORD, BIG_BODY_END - 4,
    b"\xff" * 4, b"\x18\x00\x64\x00", 14, 24 << 16, 1 | 124 << 16, LSN, 0, 1,
)


def _insert(**changes):
    """``_INSERT`` with some arguments replaced (and ``runs`` on)."""
    names = ("offset", "old", "new", "slot_at", "old_slot", "slot", "count_at",
             "old_count", "new_count", "at", "old_stamp", "stamp")
    values = dict(zip(names, _INSERT[1:]))
    values.update(changes)
    return ("insert", *values.values(), True)


class TestInsertOp:
    """``insert_op`` is ``begin_op``, the record's and the slot's
    ``on_write``, the slot count's and the LSN's ``on_stamp`` and
    ``end_op``: the same tracker state after every call, and the same
    runs, list for list, as those six calls' ``last_op_runs``."""

    @pytest.mark.parametrize("strategy", sorted(_WRITE_STRATEGIES))
    @given(
        scheme=_schemes,
        existing=st.integers(min_value=0, max_value=2),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_one_pass_equals_its_bracket(self, strategy, scheme, existing, data):
        body_end, actions = _WRITE_STRATEGIES[strategy]
        one_pass = ChangeTracker(scheme, existing, HEADER_END, body_end)
        bracket = ChangeTracker(scheme, existing, HEADER_END, body_end)
        for action in data.draw(actions):
            result = _one_of_each(bracket, action, bracketed=True)
            assert _one_of_each(one_pass, action, bracketed=False) == result, action
            assert _observable(one_pass) == _observable(bracket), action
            assert one_pass.last_op_runs == bracket.last_op_runs, action

    @pytest.mark.parametrize(
        "scheme", [SCHEME_2X4, IpaScheme(2, 15), IpaScheme(0, 0)],
        ids=["2x4", "2x15", "out-of-place"],
    )
    @pytest.mark.parametrize(
        "before, action",
        [
            ([], _insert()),  # every byte of the record changes
            ([], _insert(new=b"\xff" * 50 + _RECORD[:50])),  # erased bytes kept
            ([], _insert(offset=HEADER_END, old=b"\xff" * 16, new=_RECORD[:16])),
            ([], _insert(old=_RECORD, new=_RECORD[:10] + b"zz" + _RECORD[12:])),
            ([], _insert(new=b"\xff" * 100)),  # identical to the erased bytes
            ([], _insert(slot_at=HEADER_END + 100)),  # the slot beside it
            ([], _insert(old_stamp=0x000100FF, stamp=0x01000000)),  # a zero between
            ([], _insert(old_count=0, new_count=0, old_stamp=9, stamp=9)),  # no stamp
            ([_insert()], _insert(offset=HEADER_END + 100)),  # already out of place
            ([("begin",), ("write", 40, b"\x00", b"\x09")], _insert()),  # refused
        ],
        ids=[
            "all-changed", "erased-kept", "16-bytes", "diff-within-m", "equal",
            "slot-beside", "lsn-zero-byte", "unstamped", "out-of-place-page",
            "op-open",
        ],
    )
    def test_directed_inserts(self, scheme, before, action):
        ref = RefChangeTracker(scheme, 0, HEADER_END, BIG_BODY_END)
        one_pass = ChangeTracker(scheme, 0, HEADER_END, BIG_BODY_END)
        bracket = ChangeTracker(scheme, 0, HEADER_END, BIG_BODY_END)
        _run((ref, one_pass, bracket), *before)
        got = _one_of_each(one_pass, action, bracketed=False)
        assert got == _one_of_each(bracket, action, bracketed=True)
        spec = _apply_action(ref, action)
        if spec[0] is not RuntimeError:  # the insert ran: its changes
            got = got[0], _run_changes(got[1])
        assert got == spec
        _run((ref, one_pass, bracket), ("end",))  # closes a refused insert's op
        assert _observable(one_pass) == _observable(bracket) == _observable(ref)
        assert one_pass.last_op_runs == bracket.last_op_runs

    @pytest.mark.parametrize(
        "action, one_diff",
        [
            (_insert(), True),
            (_insert(slot_at=HEADER_END + 100), True),
            (_insert(offset=HEADER_END, old=b"\xff" * 16, new=_RECORD[:16]), False),
            (_insert(old=_RECORD, new=_RECORD[:10] + b"zz" + _RECORD[12:]), False),
            (_insert(slot_at=HEADER_END + 99), False),  # the slot over the record
            (_insert(offset=HEADER_END - 1), False),  # the record in two regions
        ],
    )
    def test_the_one_diff_shortcut_is_taken_where_the_record_exceeds_m(
        self, action, one_diff
    ):
        """The comparisons above only prove the shortcut where they reach
        it: a record-sized body record beyond M beside its slot."""
        tracker = ChangeTracker(SCHEME_2X4, 0, HEADER_END, BIG_BODY_END)
        with mock.patch.object(
            ChangeTracker, "on_write", autospec=True, side_effect=ChangeTracker.on_write
        ) as on_write:
            tracker.insert_op(*action[1:])
        assert on_write.called is not one_diff


class TestSpanRuns:
    @given(
        offset=st.integers(min_value=0, max_value=4096),
        diff=st.one_of(
            st.binary(min_size=1, max_size=16),
            st.lists(st.sampled_from([0, 0, 1, 0xFF]), min_size=1, max_size=40).map(
                bytes
            ),
        ),
        data=st.data(),
    )
    @settings(max_examples=500, deadline=None)
    def test_the_cut_of_a_diff_is_the_regex_cut(self, offset, diff, data):
        """Short diffs are cut by a plain loop, long ones by a regex: both
        are the regex's maximal nonzero runs."""
        new = data.draw(st.binary(min_size=len(diff), max_size=len(diff)))
        assert _span_runs(offset, diff, new) == ref_span_runs(offset, diff, new)
