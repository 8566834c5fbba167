"""The compiled page codecs and the region-classified change tracker
against the implementations they replaced.

The ``ref_*`` functions and ``RefChangeTracker`` below are the bodies
this repository ran before the codecs were compiled (per-byte loops,
per-field ``int.to_bytes``), kept verbatim: they are the specification.
(The record schema's spec model lives in ``tests.reference.schema``.)  Every test feeds the same random input to the
reference and to the live code and requires the same bytes, the same
decoded values, the same tracker state after every call, and the same
exception on input both must reject.

``ParentChangeTracker``, ``ParentUpdateOp`` and ``ParentHeapFile`` are
one generation younger: the tracker (per-byte loop at every length) and
the update bracket (``_UpdateOp.__exit__``, ``HeapFile`` on two context
managers, four header writes per insert) as they ran before the
right-sized primitives replaced them, again verbatim.

``parent_nurand``, ``parent_zipf_index`` and ``parent_value`` are the
workload generators' random helpers as they ran while every draw was a
numpy call on a scalar or a ten-letter array, verbatim; the draw kernel
that replaced them (``repro.workloads.base.DrawStream``) must return
what they return and leave the generator where they leave it.

``ParentBlockManager`` is the garbage collector and the out-of-place
write path as they ran while relocation was a page-at-a-time loop
(``_migrate_page`` / ``_migrate_page_inner``: one ``read_page_with_oob``
and one ``program_page`` per valid page), verbatim; the shipped
``BlockManager`` relocates a victim's valid pages as one
``execute_batch`` of ``OP_COPY`` rows and must leave clock, counters,
maps, free pool and media exactly where the loop leaves them, on every
backend, GC mode and channel count, error paths included.
"""

import hashlib
import zlib
from contextlib import ExitStack, contextmanager
from dataclasses import asdict, fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import (
    PAGE_FOOTER_SIZE,
    PAGE_HEADER_SIZE,
    PAIR_SIZE,
    SCHEME_2X4,
    IpaScheme,
)
from repro.core.delta import DeltaFormatError, DeltaRecord, decode_delta_area
from repro.core.reconstruct import ReconstructionError, reconstruct
from repro.core.tracker import ChangeTracker
from repro.engine.wal import (
    FRAME_HEADER_SIZE,
    FormatRecord,
    PageUpdateRecord,
    WriteAheadLog,
    decode_frames,
    decode_records,
    encode_frame,
)
from repro.flash.chip import FlashChip
from repro.flash.device import FlashDevice
from repro.flash.errors import EccUncorrectableError, FlashError
from repro.flash.geometry import FlashGeometry
from repro.flash.modes import FlashMode
from repro.flash.page import PageState
from repro.flash.sanitize import PhysicsViolationError, Sanitizer
from repro.ftl import ipa_ftl as ipa_ftl_module
from repro.ftl import noftl as noftl_module
from repro.ftl import page_mapping as page_mapping_module
from repro.ftl.gc import BlockManager
from repro.ftl.interface import DeviceFullError
from repro.ftl.ipa_ftl import IpaFtl
from repro.ftl.noftl import IpaRegionConfig, NoFtlDevice
from repro.ftl.oob_meta import OOB_META_SIZE, has_oob_meta, pack_oob_meta
from repro.ftl.page_mapping import PageMappingFtl
from repro.obs.ledger import WriteLedger
from repro.core.config import IPA_DISABLED
from repro.storage import manager as manager_module
from repro.storage.buffer import Frame
from repro.storage.heap import RID, FileFullError, HeapFile
from repro.storage.layout import (
    _FREE_LOWER,
    _SLOT,
    _SLOT_COUNT,
    _U16,
    PageFullError,
    SlottedPage,
)
from repro.workloads.base import draws, nurand, release, zipf_index
from repro.workloads.ycsb import _value
from repro.storage.manager import (
    IpaNativePolicy,
    StorageManager,
    TraditionalPolicy,
)
from tests.reference import outcome

# ---------------------------------------------------------------------- #
# Reference: ChangeTracker (byte-by-byte classification)
# ---------------------------------------------------------------------- #


class RefChangeTracker:
    def __init__(self, scheme, existing_records, header_end, body_end):
        self.scheme = scheme
        self.existing_records = existing_records
        self._header_end = header_end
        self._body_end = body_end
        self.records = []
        self.out_of_place = not scheme.enabled
        self.meta_changed = False
        self._open = None
        self.net_changed_offsets = set()
        self.meta_changed_offsets = set()
        self.op_sizes = []
        self.last_op_changes = {}
        self._open_raw = None
        self._open_meta = None

    def begin_op(self):
        if self._open_raw is not None:
            raise RuntimeError("nested update operations are not supported")
        self._open_raw = {}
        self._open_meta = {}
        if not self.out_of_place:
            self._open = {}

    def end_op(self):
        if self._open_raw is not None:
            raw, self._open_raw = self._open_raw, None
            meta, self._open_meta = self._open_meta or {}, None
            if raw:
                self.op_sizes.append(len(raw))
            self.last_op_changes = {**raw, **meta}
        if self._open is None:
            return
        changes, self._open = self._open, None
        if self.out_of_place or not changes:
            return
        if self.existing_records + len(self.records) + 1 > self.scheme.n_records:
            self.mark_out_of_place()
            return
        self.records.append(changes)

    def mark_out_of_place(self):
        self.out_of_place = True
        self.records.clear()
        self._open = None

    def on_write(self, offset, old, new):
        for i in range(len(new)):
            if old[i] == new[i]:
                continue
            pos = offset + i
            if pos < self._header_end or pos >= self._body_end:
                self.meta_changed = True
                self.meta_changed_offsets.add(pos)
                if self._open_meta is not None:
                    self._open_meta[pos] = new[i]
                continue
            self.net_changed_offsets.add(pos)
            if self._open_raw is not None:
                self._open_raw[pos] = new[i]
            if self.out_of_place:
                continue
            if self._open is None:
                self.mark_out_of_place()
                continue
            self._open[pos] = new[i]
            if len(self._open) > self.scheme.m_bytes:
                self.mark_out_of_place()

    @property
    def ipa_eligible(self):
        if self.out_of_place or not self.scheme.enabled:
            return False
        pending = len(self.records) if self.records else (
            1 if self.meta_changed else 0
        )
        return self.existing_records + pending <= self.scheme.n_records

    @property
    def dirty(self):
        return bool(
            self.records or self.meta_changed or self.net_changed_offsets
        )

    def reset_after_flush(self, new_existing_records):
        self.existing_records = new_existing_records
        self.records = []
        self.out_of_place = not self.scheme.enabled
        self.meta_changed = False
        self._open = None
        self._open_raw = None
        self._open_meta = None
        self.net_changed_offsets = set()
        self.meta_changed_offsets = set()
        self.op_sizes = []


# A small page keeps every region and both boundaries within reach of a
# random write: header [0, 24), body [24, 60), delta area + footer
# [60, 80).
HEADER_END = PAGE_HEADER_SIZE
BODY_END = 60
PAGE_END = 80

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


_actions = st.lists(
    st.one_of(
        _writes(),
        _writes(),
        _writes(),
        st.just(("begin",)),
        st.just(("end",)),
        st.tuples(st.just("flushed"), st.integers(min_value=0, max_value=2)),
    ),
    max_size=30,
)

_schemes = st.sampled_from(
    [SCHEME_2X4, IpaScheme(1, 1), IpaScheme(3, 2), IpaScheme(2, 15), IpaScheme(0, 0)]
)


def _observable(tracker):
    return {
        "records": tracker.records,
        "out_of_place": tracker.out_of_place,
        "meta_changed": tracker.meta_changed,
        "net_changed_offsets": tracker.net_changed_offsets,
        "meta_changed_offsets": tracker.meta_changed_offsets,
        "op_sizes": tracker.op_sizes,
        "last_op_changes": tracker.last_op_changes,
        "ipa_eligible": tracker.ipa_eligible,
        "dirty": tracker.dirty,
    }


def _apply_action(tracker, action):
    """Run one action; returns the exception type it raised, if any."""
    try:
        if action[0] == "write":
            tracker.on_write(*action[1:])
        elif action[0] == "begin":
            tracker.begin_op()
        elif action[0] == "end":
            tracker.end_op()
        else:
            tracker.reset_after_flush(action[1])
    except RuntimeError as error:  # nested begin_op
        return type(error), str(error)
    return None


class TestChangeTracker:
    @given(
        scheme=_schemes,
        existing=st.integers(min_value=0, max_value=2),
        actions=_actions,
    )
    @settings(max_examples=300, deadline=None)
    def test_same_state_after_every_call(self, scheme, existing, actions):
        ref = RefChangeTracker(scheme, existing, HEADER_END, BODY_END)
        new = ChangeTracker(scheme, existing, HEADER_END, BODY_END)
        assert _observable(new) == _observable(ref)
        for action in actions:
            assert _apply_action(new, action) == _apply_action(ref, action)
            assert _observable(new) == _observable(ref), action

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
        old, new = b"\x00" * length, b"\x01" * length
        trackers = [
            cls(SCHEME_2X4, 0, HEADER_END, BODY_END)
            for cls in (RefChangeTracker, ChangeTracker)
        ]
        for tracker in trackers:
            if bracketed:
                tracker.begin_op()
            tracker.on_write(offset, old, new)
            if bracketed:
                tracker.end_op()
        assert _observable(trackers[1]) == _observable(trackers[0])

    def test_equal_write_returns_before_looking_at_the_region(self):
        tracker = ChangeTracker(SCHEME_2X4, 0, HEADER_END, BODY_END)
        tracker.on_write(HEADER_END - 2, b"same", b"same")  # straddling
        tracker.on_write(HEADER_END, b"same", b"same")  # unbracketed body
        assert not tracker.dirty and not tracker.out_of_place


# ---------------------------------------------------------------------- #
# Reference: the parent's ChangeTracker (per-byte loop at every length)
# ---------------------------------------------------------------------- #


class ParentChangeTracker:
    """Tracks one buffer-resident page's updates against an N x M scheme.

    Args:
        scheme: The page's IPA configuration.
        existing_records: Delta-records already present on the Flash copy
            of the page (they count against N).
        header_end: First byte after the page header.
        body_end: First byte after the body (start of the delta area).
    """

    __slots__ = (
        "scheme",
        "existing_records",
        "_header_end",
        "_body_end",
        "records",
        "out_of_place",
        "meta_changed",
        "_open",
        "net_changed_offsets",
        "meta_changed_offsets",
        "op_sizes",
        "_open_raw",
        "_open_meta",
        "_last_raw",
        "_last_meta",
    )

    def __init__(
        self,
        scheme: IpaScheme,
        existing_records: int,
        header_end: int,
        body_end: int,
    ) -> None:
        self.scheme = scheme
        self.existing_records = existing_records
        self._header_end = header_end
        self._body_end = body_end
        self.records: list[dict[int, int]] = []
        self.out_of_place = not scheme.enabled
        self.meta_changed = False
        self._open: dict[int, int] | None = None
        #: Total distinct body bytes changed (for the E7 analysis).
        self.net_changed_offsets: set[int] = set()
        #: Distinct header/footer bytes changed (IPL logs these too).
        self.meta_changed_offsets: set[int] = set()
        #: Changed-byte count of every bracketed op, conformant or not —
        #: the raw material of trace capture (E6) and the N x M ablation.
        self.op_sizes: list[int] = []
        self._open_raw: dict[int, int] | None = None
        self._open_meta: dict[int, int] | None = None
        # Body and metadata changes of the last closed op; merged only
        # when someone asks (see last_op_changes).
        self._last_raw: dict[int, int] = {}
        self._last_meta: dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # Operation bracketing
    # ------------------------------------------------------------------ #

    def begin_op(self) -> None:
        """Start one update operation (one candidate delta-record)."""
        if self._open_raw is not None:
            raise RuntimeError("nested update operations are not supported")
        self._open_raw = {}
        self._open_meta = {}
        if not self.out_of_place:
            self._open = {}

    def end_op(self) -> None:
        """Close the operation; promote its changes to a delta-record."""
        if self._open_raw is not None:
            raw, self._open_raw = self._open_raw, None
            meta, self._open_meta = self._open_meta or {}, None
            if raw:
                self.op_sizes.append(len(raw))
            self._last_raw = raw
            self._last_meta = meta
        if self._open is None:
            return
        changes, self._open = self._open, None
        if self.out_of_place or not changes:
            return
        if self.existing_records + len(self.records) + 1 > self.scheme.n_records:
            self.mark_out_of_place()
            return
        self.records.append(changes)

    @property
    def last_op_changes(self) -> dict[int, int]:
        """Every changed byte (offset -> new value) of the last closed op,
        INCLUDING header/footer bytes — the WAL's redo payload."""
        return {**self._last_raw, **self._last_meta}

    def mark_out_of_place(self) -> None:
        """Give up on IPA for this residency; stop tracking."""
        self.out_of_place = True
        self.records.clear()
        self._open = None

    # ------------------------------------------------------------------ #
    # Write observation (SlottedPage hook)
    # ------------------------------------------------------------------ #

    def on_write(self, offset: int, old: bytes, new: bytes) -> None:
        """Observe one page mutation (``old`` -> ``new``, equally long).

        A write lies in one region — header, body, or delta area + footer
        — and is classified once.  One that straddles a region boundary
        is split there and its pieces observed in offset order, which is
        what observing it byte by byte amounts to.
        """
        if old == new:
            return
        end = offset + len(new)
        header_end = self._header_end
        body_end = self._body_end
        if end <= header_end or offset >= body_end:
            in_body = False
        elif offset >= header_end and end <= body_end:
            in_body = True
        else:
            cut = (header_end if offset < header_end else body_end) - offset
            self.on_write(offset, old[:cut], new[:cut])
            self.on_write(offset + cut, old[cut:], new[cut:])
            return
        changed: dict[int, int] = {}
        pos = offset
        for before, after in zip(old, new):
            if before != after:
                changed[pos] = after
            pos += 1
        if not in_body:
            # Header/footer: shipped via delta_metadata, free of charge.
            self.meta_changed = True
            self.meta_changed_offsets.update(changed)
            if self._open_meta is not None:
                self._open_meta.update(changed)
            return
        self.net_changed_offsets.update(changed)
        if self._open_raw is not None:
            self._open_raw.update(changed)
        if self.out_of_place:
            return
        if self._open is None:
            # A body change outside any bracketed operation (bulk load,
            # page reorganisation): not representable as a delta-record.
            self.mark_out_of_place()
            return
        self._open.update(changed)
        if len(self._open) > self.scheme.m_bytes:
            self.mark_out_of_place()

    # ------------------------------------------------------------------ #
    # Eviction-side queries
    # ------------------------------------------------------------------ #

    @property
    def ipa_eligible(self) -> bool:
        """Can this page be evicted via in-place appends right now?"""
        if self.out_of_place or not self.scheme.enabled:
            return False
        pending = len(self.records) if self.records else (
            1 if self.meta_changed else 0
        )
        return self.existing_records + pending <= self.scheme.n_records

    @property
    def dirty(self) -> bool:
        """Any tracked change at all (body or metadata)?"""
        return bool(
            self.records or self.meta_changed or self.net_changed_offsets
        )

    def build_delta_records(
        self, meta_header: bytes, meta_footer: bytes
    ) -> list[DeltaRecord]:
        """Materialize the pending delta-records for eviction.

        Every record carries the *final* metadata snapshot — records are
        applied in order on fetch, so the last overlay wins and equals the
        page state at eviction.

        A metadata-only change (LSN bump without body bytes) produces one
        pair-less record.
        """
        if self.out_of_place:
            raise RuntimeError("page is flagged out-of-place")
        groups = self.records if self.records else ([{}] if self.meta_changed else [])
        return [
            DeltaRecord(
                pairs=sorted(group.items()),
                meta_header=meta_header,
                meta_footer=meta_footer,
            )
            for group in groups
        ]

    def reset_after_flush(self, new_existing_records: int) -> None:
        """Re-arm the tracker after the page reached Flash."""
        self.existing_records = new_existing_records
        self.records = []
        self.out_of_place = not self.scheme.enabled
        self.meta_changed = False
        self._open = None
        self._open_raw = None
        self._open_meta = None
        self.net_changed_offsets = set()
        self.meta_changed_offsets = set()
        self.op_sizes = []


# A page with room for record-sized writes: header [0, 24), body
# [24, 300), delta area + footer [300, 340).
BIG_BODY_END = 300
BIG_PAGE_END = 340

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


_span_actions = st.lists(
    st.one_of(
        _span_writes(),
        _span_writes(),
        _span_writes(),
        _span_writes(),
        st.just(("begin",)),
        st.just(("end",)),
        st.tuples(st.just("flushed"), st.integers(min_value=0, max_value=2)),
    ),
    max_size=25,
)


class TestChangeTrackerAgainstParent:
    @given(
        scheme=_schemes,
        existing=st.integers(min_value=0, max_value=2),
        actions=_span_actions,
    )
    @settings(max_examples=400, deadline=None)
    def test_same_state_after_every_call(self, scheme, existing, actions):
        """``watched`` is compared after every call; ``unwatched`` only at
        the end, so whatever it defers stays deferred across calls."""
        ref = ParentChangeTracker(scheme, existing, HEADER_END, BIG_BODY_END)
        watched = ChangeTracker(scheme, existing, HEADER_END, BIG_BODY_END)
        unwatched = ChangeTracker(scheme, existing, HEADER_END, BIG_BODY_END)
        for action in actions:
            outcome = _apply_action(ref, action)
            assert _apply_action(watched, action) == outcome
            assert _apply_action(unwatched, action) == outcome
            assert _observable(watched) == _observable(ref), action
        assert _observable(unwatched) == _observable(ref)

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
        ref = ParentChangeTracker(SCHEME_2X4, 0, HEADER_END, BIG_BODY_END)
        new = ChangeTracker(SCHEME_2X4, 0, HEADER_END, BIG_BODY_END)
        for i in range(500):
            old = bytes([i % 251]) * 100
            span = bytes([(i + 1) % 251]) * 50 + old[50:]
            for tracker in (ref, new):
                tracker.begin_op()
                tracker.on_write(30 + i % 100, old, span)
                tracker.end_op()
            assert len(new._net_spans) <= 65
        assert _observable(new) == _observable(ref)

    @pytest.mark.parametrize(
        "second_offset, second_old, second_new",
        [
            (40, b"rrrr", b"r\xffzr"),  # overlaps: one byte back to erased
            (28, b"\xffrrr" , b"zzzz"),  # overlaps the front edge
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
            for cls in (ParentChangeTracker, ChangeTracker)
        ]
        for tracker in trackers:
            tracker.begin_op()
            tracker.on_write(30, b"\xff" * 50, b"r" * 50)
            tracker.on_write(second_offset, second_old, second_new)
            tracker.end_op()
        assert _observable(trackers[1]) == _observable(trackers[0])


# ---------------------------------------------------------------------- #
# Reference: delta-record codec and reconstruction
# ---------------------------------------------------------------------- #

_CONTROL_TAG = 0x40
_ERASED = 0xFF


def ref_record_encode(record, scheme):
    if not scheme.enabled:
        raise DeltaFormatError("cannot encode a record for scheme [0x0]")
    if len(record.pairs) > scheme.m_bytes:
        raise DeltaFormatError(
            f"{len(record.pairs)} pairs exceed M={scheme.m_bytes}"
        )
    if len(record.meta_header) != PAGE_HEADER_SIZE:
        raise DeltaFormatError(f"meta_header must be {PAGE_HEADER_SIZE} bytes")
    if len(record.meta_footer) != PAGE_FOOTER_SIZE:
        raise DeltaFormatError(f"meta_footer must be {PAGE_FOOTER_SIZE} bytes")
    out = bytearray([_ERASED]) * scheme.record_size
    out[0] = _CONTROL_TAG | len(record.pairs)
    for i, (offset, value) in enumerate(record.pairs):
        if not 0 <= offset < 0xFFFF:
            raise DeltaFormatError(f"offset {offset} not encodable in 16 bits")
        if not 0 <= value <= 0xFF:
            raise DeltaFormatError(f"value {value} is not a byte")
        base = 1 + i * PAIR_SIZE
        out[base : base + 2] = offset.to_bytes(2, "little")
        out[base + 2] = value
    meta_base = 1 + scheme.m_bytes * PAIR_SIZE
    out[meta_base : meta_base + PAGE_HEADER_SIZE] = record.meta_header
    out[
        meta_base + PAGE_HEADER_SIZE : meta_base + PAGE_HEADER_SIZE
        + PAGE_FOOTER_SIZE
    ] = record.meta_footer
    return bytes(out)


def ref_record_decode(buf, scheme):
    if len(buf) != scheme.record_size:
        raise DeltaFormatError(
            f"slot is {len(buf)} bytes, scheme needs {scheme.record_size}"
        )
    control = buf[0]
    if control == _ERASED:
        return None
    if control & 0xF0 != _CONTROL_TAG:
        raise DeltaFormatError(f"bad control byte 0x{control:02x}")
    count = control & 0x0F
    if count > scheme.m_bytes:
        raise DeltaFormatError(
            f"control claims {count} pairs but M={scheme.m_bytes}"
        )
    pairs = []
    for i in range(count):
        base = 1 + i * PAIR_SIZE
        offset = int.from_bytes(buf[base : base + 2], "little")
        value = buf[base + 2]
        pairs.append((offset, value))
    meta_base = 1 + scheme.m_bytes * PAIR_SIZE
    meta_header = bytes(buf[meta_base : meta_base + PAGE_HEADER_SIZE])
    meta_footer = bytes(
        buf[
            meta_base + PAGE_HEADER_SIZE : meta_base + PAGE_HEADER_SIZE
            + PAGE_FOOTER_SIZE
        ]
    )
    return DeltaRecord(pairs=pairs, meta_header=meta_header, meta_footer=meta_footer)


def ref_decode_delta_area(area, scheme, max_records=None):
    if not scheme.enabled:
        return []
    if len(area) != scheme.delta_area_size:
        raise DeltaFormatError(
            f"delta area is {len(area)} bytes, scheme needs "
            f"{scheme.delta_area_size}"
        )
    limit = scheme.n_records
    if max_records is not None:
        limit = min(limit, max_records)
    records = []
    for i in range(limit):
        slot = area[i * scheme.record_size : (i + 1) * scheme.record_size]
        record = ref_record_decode(slot, scheme)
        if record is None:
            break
        records.append(record)
    return records


def ref_reconstruct(image, scheme, max_records=None):
    page = bytearray(image)
    if not scheme.enabled:
        return page, 0
    page_size = len(image)
    footer_start = page_size - PAGE_FOOTER_SIZE
    delta_start = footer_start - scheme.delta_area_size
    records = ref_decode_delta_area(
        image[delta_start:footer_start], scheme, max_records
    )
    for index, record in enumerate(records):
        for offset, value in record.pairs:
            if offset < PAGE_HEADER_SIZE or offset >= delta_start:
                raise ReconstructionError(
                    f"delta-record {index} pair targets offset {offset}, "
                    f"outside the body [{PAGE_HEADER_SIZE}, {delta_start})"
                )
            page[offset] = value
        page[0:PAGE_HEADER_SIZE] = record.meta_header
        page[len(page) - PAGE_FOOTER_SIZE :] = record.meta_footer
    for i in range(delta_start, footer_start):
        page[i] = 0xFF
    return page, len(records)


def _delta_outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except (DeltaFormatError, ReconstructionError) as error:
        return ("raised", type(error), str(error))


_enabled_schemes = st.sampled_from(
    [SCHEME_2X4, IpaScheme(1, 1), IpaScheme(3, 2), IpaScheme(2, 15)]
)
# Offsets and values reach a little past what the format can hold.
_loose_pairs = st.lists(
    st.tuples(
        st.one_of(
            st.integers(min_value=-2, max_value=0x10001),
            st.sampled_from([0, 0xFFFE, 0xFFFF]),
        ),
        st.integers(min_value=-1, max_value=257),
    ),
    max_size=16,
)
_metadata = st.one_of(
    st.binary(min_size=PAGE_HEADER_SIZE, max_size=PAGE_HEADER_SIZE),
    st.binary(max_size=40),
)


class TestDeltaRecord:
    @given(scheme=_enabled_schemes, pairs=_loose_pairs, header=_metadata, data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_encode(self, scheme, pairs, header, data):
        if data.draw(st.booleans()):
            pairs = pairs[: scheme.m_bytes]  # exercise the pair checks, not only M
        footer = data.draw(
            st.one_of(
                st.binary(min_size=PAGE_FOOTER_SIZE, max_size=PAGE_FOOTER_SIZE),
                st.binary(max_size=12),
            )
        )
        record = DeltaRecord(pairs=pairs, meta_header=header, meta_footer=footer)
        assert _delta_outcome(record.encode, scheme) == _delta_outcome(
            ref_record_encode, record, scheme
        )

    def test_encode_rejects_the_disabled_scheme(self):
        record = DeltaRecord()
        assert _delta_outcome(record.encode, IpaScheme(0, 0)) == _delta_outcome(
            ref_record_encode, record, IpaScheme(0, 0)
        )

    @given(scheme=_enabled_schemes, data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_decode(self, scheme, data):
        size = data.draw(
            st.one_of(
                st.just(scheme.record_size),
                st.integers(min_value=0, max_value=scheme.record_size + 3),
            )
        )
        buf = bytearray(data.draw(st.binary(min_size=size, max_size=size)))
        if buf and data.draw(st.booleans()):
            # A plausible control byte, so decoding gets past the tag check.
            buf[0] = data.draw(
                st.sampled_from([0xFF, 0x40, 0x41, 0x40 | scheme.m_bytes, 0x4F])
            )
        assert _delta_outcome(DeltaRecord.decode, bytes(buf), scheme) == (
            _delta_outcome(ref_record_decode, bytes(buf), scheme)
        )


PAGE_SIZE = 512


@st.composite
def _page_images(draw):
    """(image, scheme): 0..N well-formed records, then maybe a torn one."""
    scheme = draw(_enabled_schemes)
    footer_start = PAGE_SIZE - PAGE_FOOTER_SIZE
    delta_start = footer_start - scheme.delta_area_size
    image = bytearray(draw(st.binary(min_size=PAGE_SIZE, max_size=PAGE_SIZE)))
    image[delta_start:footer_start] = b"\xff" * scheme.delta_area_size
    count = draw(st.integers(min_value=0, max_value=scheme.n_records))
    # Mostly body offsets; now and then one in the header or past the body.
    offsets = st.one_of(
        st.integers(min_value=PAGE_HEADER_SIZE, max_value=delta_start - 1),
        st.integers(min_value=0, max_value=PAGE_SIZE + 5),
    )
    for slot in range(count):
        record = DeltaRecord(
            pairs=draw(
                st.lists(
                    st.tuples(offsets, st.integers(min_value=0, max_value=255)),
                    max_size=scheme.m_bytes,
                )
            ),
            meta_header=draw(
                st.binary(min_size=PAGE_HEADER_SIZE, max_size=PAGE_HEADER_SIZE)
            ),
            meta_footer=draw(
                st.binary(min_size=PAGE_FOOTER_SIZE, max_size=PAGE_FOOTER_SIZE)
            ),
        )
        start = delta_start + slot * scheme.record_size
        image[start : start + scheme.record_size] = ref_record_encode(record, scheme)
    if count < scheme.n_records and draw(st.booleans()):
        # A torn tail: some prefix of the next slot holds arbitrary bytes.
        start = delta_start + count * scheme.record_size
        torn = draw(st.binary(min_size=1, max_size=scheme.record_size))
        image[start : start + len(torn)] = torn
    return bytes(image), scheme


class TestReconstruct:
    @given(case=_page_images(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_reconstruct_and_decode_area(self, case, data):
        image, scheme = case
        cap = data.draw(
            st.one_of(
                st.none(), st.integers(min_value=0, max_value=scheme.n_records + 1)
            )
        )
        assert _delta_outcome(reconstruct, image, scheme, cap) == _delta_outcome(
            ref_reconstruct, image, scheme, cap
        )
        footer_start = PAGE_SIZE - PAGE_FOOTER_SIZE
        area = image[footer_start - scheme.delta_area_size : footer_start]
        assert _delta_outcome(decode_delta_area, area, scheme, cap) == (
            _delta_outcome(ref_decode_delta_area, area, scheme, cap)
        )

    @pytest.mark.parametrize("size", [0, 7, PAGE_FOOTER_SIZE + 10])
    def test_image_shorter_than_the_layout(self, size):
        image = b"\xff" * size
        assert _delta_outcome(reconstruct, image, SCHEME_2X4) == _delta_outcome(
            ref_reconstruct, image, SCHEME_2X4
        )

    def test_disabled_scheme_is_a_copy(self):
        image = bytes(range(256))
        assert reconstruct(image, IpaScheme(0, 0)) == ref_reconstruct(
            image, IpaScheme(0, 0)
        )


# ---------------------------------------------------------------------- #
# Reference: WAL record and frame codecs
# ---------------------------------------------------------------------- #

_MAGIC_UPDATE = 0x5A
_MAGIC_FORMAT = 0x5B
_MAGIC_FRAME = 0x5C


def ref_update_encode(record):
    out = bytearray()
    out.append(_MAGIC_UPDATE)
    out += record.lsn.to_bytes(8, "little")
    out += record.lba.to_bytes(4, "little")
    out += len(record.changes).to_bytes(2, "little")
    for offset, value in record.changes:
        out += offset.to_bytes(2, "little")
        out.append(value)
    return bytes(out)


def ref_format_encode(record):
    out = bytearray()
    out.append(_MAGIC_FORMAT)
    out += record.lsn.to_bytes(8, "little")
    out += record.lba.to_bytes(4, "little")
    out += record.file_id.to_bytes(2, "little")
    return bytes(out)


def ref_decode_records(data):
    records = []
    pos = 0
    while pos < len(data):
        magic = data[pos]
        if magic == _ERASED:
            break
        if magic == _MAGIC_UPDATE:
            lsn = int.from_bytes(data[pos + 1 : pos + 9], "little")
            lba = int.from_bytes(data[pos + 9 : pos + 13], "little")
            count = int.from_bytes(data[pos + 13 : pos + 15], "little")
            pos += 15
            changes = []
            for _ in range(count):
                offset = int.from_bytes(data[pos : pos + 2], "little")
                changes.append((offset, data[pos + 2]))
                pos += 3
            records.append(PageUpdateRecord(lsn, lba, tuple(changes)))
        elif magic == _MAGIC_FORMAT:
            lsn = int.from_bytes(data[pos + 1 : pos + 9], "little")
            lba = int.from_bytes(data[pos + 9 : pos + 13], "little")
            file_id = int.from_bytes(data[pos + 13 : pos + 15], "little")
            pos += 15
            records.append(FormatRecord(lsn, lba, file_id))
        else:
            raise ValueError(f"corrupt log record magic 0x{magic:02x}")
    return records


def ref_encode_frame(payload):
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    return (
        bytes([_MAGIC_FRAME])
        + len(payload).to_bytes(4, "little")
        + crc.to_bytes(4, "little")
        + payload
    )


def ref_decode_frames(stream):
    frames = []
    pos = 0
    n = len(stream)
    while pos + FRAME_HEADER_SIZE <= n:
        if stream[pos] != _MAGIC_FRAME:
            break
        length = int.from_bytes(stream[pos + 1 : pos + 5], "little")
        crc = int.from_bytes(stream[pos + 5 : pos + 9], "little")
        start = pos + FRAME_HEADER_SIZE
        payload = stream[start : start + length]
        if len(payload) < length:
            break
        if (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
            break
        frames.append(payload)
        pos = start + length
    return frames


_lsns = st.integers(min_value=0, max_value=2**64 - 1)
_lbas = st.integers(min_value=0, max_value=2**32 - 1)
_u16 = st.integers(min_value=0, max_value=0xFFFF)
_update_records = st.builds(
    PageUpdateRecord,
    _lsns,
    _lbas,
    st.lists(
        st.tuples(_u16, st.integers(min_value=0, max_value=255)), max_size=80
    ).map(tuple),
)
_format_records = st.builds(FormatRecord, _lsns, _lbas, _u16)
_log_records = st.lists(st.one_of(_update_records, _format_records), max_size=8)


def _ref_encode(record):
    if isinstance(record, FormatRecord):
        return ref_format_encode(record)
    return ref_update_encode(record)


class TestWalCodecs:
    @given(records=_log_records, erased_tail=st.integers(min_value=0, max_value=5))
    @settings(max_examples=200, deadline=None)
    def test_records(self, records, erased_tail):
        encoded = [record.encode() for record in records]
        assert encoded == [_ref_encode(record) for record in records]
        stream = b"".join(encoded) + b"\xff" * erased_tail
        assert decode_records(stream) == ref_decode_records(stream) == records

    def test_unknown_magic(self):
        stream = FormatRecord(1, 2, 3).encode() + b"\x00"
        with pytest.raises(ValueError, match="corrupt log record magic 0x00"):
            decode_records(stream)
        with pytest.raises(ValueError, match="corrupt log record magic 0x00"):
            ref_decode_records(stream)

    def test_a_record_cut_short_is_an_error_not_a_guess(self):
        # The per-field slicing this replaced read a cut-short header as
        # smaller integers and carried on; frames are CRC-checked before
        # their records are parsed, so a short record is corruption.
        update = PageUpdateRecord(7, 9, ((1, 2), (3, 4))).encode()
        for cut in (1, 14, len(update) - 1):
            with pytest.raises(ValueError, match="cut short"):
                decode_records(update[:cut])

    @given(
        payloads=st.lists(st.binary(max_size=60), max_size=6),
        tail=st.binary(max_size=30),
        flip=st.one_of(st.none(), st.integers(min_value=0, max_value=400)),
    )
    @settings(max_examples=300, deadline=None)
    def test_frames(self, payloads, tail, flip):
        frames = [encode_frame(payload) for payload in payloads]
        assert frames == [ref_encode_frame(payload) for payload in payloads]
        stream = bytearray(b"".join(frames) + tail)
        if flip is not None and stream:
            stream[flip % len(stream)] ^= 0x10  # a torn or corrupt byte
        stream = bytes(stream)
        assert decode_frames(stream) == ref_decode_frames(stream)
        if flip is None and not tail.startswith(bytes([_MAGIC_FRAME])):
            assert decode_frames(stream) == payloads


# ---------------------------------------------------------------------- #
# Reference: StorageManager.update() as a generator context manager
# ---------------------------------------------------------------------- #


@contextmanager
def ref_update(manager, lba):
    frame = manager.fetch(lba)
    ops_before = len(frame.tracker.op_sizes)
    frame.tracker.begin_op()
    lsn = 0
    try:
        yield frame.page
        lsn = manager._take_lsn()
        frame.page.set_lsn(lsn)
    finally:
        frame.tracker.end_op()
        if len(frame.tracker.op_sizes) > ops_before:
            manager.stats.per_file_op_sizes.setdefault(
                frame.page.file_id, []
            ).append(frame.tracker.op_sizes[-1])
        if manager.wal is not None and lsn:
            manager.wal.log_update(lsn, lba, frame.tracker.last_op_changes)
            manager._txn_locked_lbas.add(lba)
        frame.mark_dirty()
        manager.stats.update_ops += 1
        manager.clock.advance(manager.host_costs.ipa_tracking_us, "host")
        frame.unpin()


GEO = FlashGeometry(page_size=1024, oob_size=128, pages_per_block=8, blocks=32)


def _manager():
    device = NoFtlDevice(FlashChip(GEO), over_provisioning=0.2)
    device.create_region(
        "data",
        blocks=32,
        ipa=IpaRegionConfig(SCHEME_2X4.n_records, SCHEME_2X4.m_bytes),
    )
    return StorageManager(device, SCHEME_2X4, IpaNativePolicy(), buffer_capacity=4)


def _update_state(manager, lba):
    frame = manager.pool.get(lba)
    return {
        "update_ops": manager.stats.update_ops,
        "per_file_op_sizes": manager.stats.per_file_op_sizes,
        "dirty": frame.dirty,
        "pin_count": frame.pin_count,
        "now_us": manager.clock.now_us,
        "breakdown": dict(manager.clock.breakdown_us),
        "next_lsn": manager._next_lsn,
        "lsn": frame.page.lsn,
        "image": frame.page.to_bytes(),
        "tracker": _observable(frame.tracker),
    }


class TestUpdateContextManager:
    def test_page_full_inside_the_block_still_runs_the_exit_work(self):
        """``HeapFile.insert`` probes pages with inserts that may raise:
        the probe is counted, charged and marks the frame dirty, and only
        the LSN stamp is skipped."""
        new, ref = _manager(), _manager()
        for manager, update in ((new, new.update), (ref, lambda lba: ref_update(ref, lba))):
            manager.unpin(manager.format_page(0))
            with update(0) as page:
                page.insert(b"r" * 400)
            manager.flush_all()  # clean frame, clock and tracker settled
            assert not manager.pool.get(0).dirty
            with pytest.raises(PageFullError):
                with update(0) as page:
                    page.insert(b"x" * 2000)
        state = _update_state(new, 0)
        assert state == _update_state(ref, 0)
        assert state["update_ops"] == 2 and state["dirty"] and state["pin_count"] == 0
        assert state["lsn"] == 1 and state["next_lsn"] == 2  # no LSN was taken

    def test_completed_update_matches(self):
        new, ref = _manager(), _manager()
        for manager, update in ((new, new.update), (ref, lambda lba: ref_update(ref, lba))):
            manager.unpin(manager.format_page(0))
            with update(0) as page:
                slot = page.insert(b"r" * 100)
            with update(0) as page:
                page.update(slot, 3, b"zz")
        assert _update_state(new, 0) == _update_state(ref, 0)

    def test_read_access_unpins_when_the_block_raises(self):
        manager = _manager()
        manager.unpin(manager.format_page(0))
        with pytest.raises(IndexError):
            with manager.page(0) as page:
                page.read(0)  # the fresh page has no slot 0
        assert manager.pool.get(0).pin_count == 0


# ---------------------------------------------------------------------- #
# Reference: the parent's update bracket, fetch, HeapFile and page insert
# ---------------------------------------------------------------------- #


class ParentUpdateOp:
    """``StorageManager.update()``'s context manager before
    ``StorageManager.end_update`` took its exit work over."""

    __slots__ = ("_manager", "_lba", "_frame", "_ops_before")

    def __init__(self, manager, lba):
        self._manager = manager
        self._lba = lba

    def __enter__(self):
        self._frame = frame = self._manager.fetch(self._lba)
        self._ops_before = len(frame.tracker.op_sizes)
        frame.tracker.begin_op()
        return frame.page

    def __exit__(self, exc_type, *_exc):
        manager = self._manager
        frame = self._frame
        tracker = frame.tracker
        lsn = 0
        try:
            if exc_type is None:
                lsn = manager._take_lsn()
                frame.page.set_lsn(lsn)
        finally:
            tracker.end_op()
            if len(tracker.op_sizes) > self._ops_before:
                manager.stats.per_file_op_sizes.setdefault(
                    frame.page.file_id, []
                ).append(tracker.op_sizes[-1])
            if manager.wal is not None and lsn:
                manager.wal.log_update(lsn, self._lba, tracker.last_op_changes)
                manager._txn_locked_lbas.add(self._lba)
            frame.mark_dirty()
            manager.stats.update_ops += 1
            manager.clock.advance(manager.host_costs.ipa_tracking_us, "host")
            frame.unpin()


def parent_update(self, lba):
    return ParentUpdateOp(self, lba)


def parent_fetch(self, lba):
    self.pool.stats.fetches += 1
    frame = self.pool.get(lba)
    if frame is not None:
        self.pool.stats.hits += 1
        self.clock.advance(self.host_costs.per_buffer_hit_us, "host")
        frame.pin()
        return frame
    self.pool.stats.misses += 1
    tr = self.tracer
    if not tr.enabled:
        image = self.device.read_page(lba)
    else:
        with tr.span("page_fetch", lba=lba):
            image = self.device.read_page(lba)
    page, k = self._load_page(image, lba)
    tracker = manager_module.ChangeTracker(
        self.scheme, k, PAGE_HEADER_SIZE, page.delta_start
    )
    page.set_write_hook(tracker.on_write)
    frame = Frame(lba, page, tracker, flash_image=image, flash_delta_count=k)
    self.pool.insert(frame)
    frame.pin()
    return frame


def parent_page_insert(self, record):
    if not record:
        raise ValueError("empty records are not supported")
    size = len(record)
    if size > self.free_space:
        raise PageFullError(f"{size} B record, {self.free_space} B free")
    slot_no, offset = _SLOT.unpack_from(self._buf, _SLOT_COUNT)
    self._write(offset, record)
    self._write(self._slot_pos(slot_no), _SLOT.pack(offset, size))
    self._write(_FREE_LOWER, _U16.pack(offset + size))
    self._write(_SLOT_COUNT, _U16.pack(slot_no + 1))
    return slot_no


def parent_heap_insert(self, record):
    start = self._cursor
    page_index = start
    while True:
        lba = self._ensure_page(page_index)
        try:
            with self.manager.update(lba) as page:
                slot = page.insert(record)
            self._cursor = page_index
            self.record_count += 1
            return RID(lba, slot)
        except PageFullError:
            page_index += 1
            if page_index >= self.max_pages:
                # Fall back to first-fit over all pages, compacting
                # tombstoned pages to reclaim deleted records' space.
                for earlier in range(0, self._allocated):
                    lba = self._lba(earlier)
                    try:
                        with self.manager.update(lba) as page:
                            if (
                                page.free_space < len(record)
                                and page.has_tombstones()
                            ):
                                page.compact()
                            slot = page.insert(record)
                        self.record_count += 1
                        return RID(lba, slot)
                    except PageFullError:
                        continue
                raise FileFullError(
                    f"file {self.file_id}: no page can hold "
                    f"{len(record)} bytes"
                )


def parent_heap_read(self, rid):
    with self.manager.page(rid.lba) as page:
        return page.read(rid.slot)


def parent_heap_update(self, rid, field_offset, data):
    with self.manager.update(rid.lba) as page:
        page.update(rid.slot, field_offset, data)


@contextmanager
def parent_code():
    """Every body this file keeps of the parent, put back in place."""
    with ExitStack() as stack:
        for owner, name, body in (
            (manager_module, "ChangeTracker", ParentChangeTracker),
            (StorageManager, "fetch", parent_fetch),
            (StorageManager, "update", parent_update),
            (SlottedPage, "insert", parent_page_insert),
            (HeapFile, "insert", parent_heap_insert),
            (HeapFile, "read", parent_heap_read),
            (HeapFile, "update", parent_heap_update),
        ):
            stack.enter_context(mock.patch.object(owner, name, body))
        yield


def _media_digest(chip):
    digest = hashlib.sha256()
    for block in chip.blocks:
        for page in block.pages:
            digest.update(page.raw_data())
            digest.update(page.raw_oob())
    return digest.hexdigest()


#: 1 KB pages fill after a handful of records, so inserts probe full
#: pages (``PageFullError`` inside the bracket) and run off the file.
HEAP_PAGES = 5

_heap_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("insert"),
            st.sampled_from([1, 30, 120, 350, 900]),
            st.integers(min_value=0, max_value=255),
        ),
        st.tuples(st.just("insert"), st.just(0), st.just(0)),  # ValueError
        st.tuples(
            st.just("update"),
            st.integers(min_value=0, max_value=40),
            st.integers(min_value=0, max_value=40),
            st.binary(min_size=1, max_size=20),
        ),
        st.tuples(st.just("read"), st.integers(min_value=0, max_value=40)),
        st.tuples(st.just("commit")),
        st.tuples(st.just("flush")),
    ),
    min_size=1,
    max_size=40,
)


def _run_heap_ops(ops, with_wal, ipa):
    """Drive one fresh stack; returns what is observable after every op."""
    device = NoFtlDevice(FlashChip(GEO), over_provisioning=0.2)
    if ipa:
        scheme, policy = SCHEME_2X4, IpaNativePolicy()
        region = IpaRegionConfig(scheme.n_records, scheme.m_bytes)
    else:
        scheme, policy, region = IPA_DISABLED, TraditionalPolicy(), None
    device.create_region("data", blocks=32, ipa=region)
    manager = StorageManager(device, scheme, policy, buffer_capacity=3)
    if with_wal:
        manager.wal = WriteAheadLog(FlashChip(GEO, seed=7))
    heap = HeapFile(manager, file_id=3, base_lba=0, max_pages=HEAP_PAGES)
    rids = []
    history = []
    for op in ops:
        outcome = None
        try:
            if op[0] == "insert":
                rids.append(heap.insert(bytes([op[2]]) * op[1]))
                outcome = rids[-1]
            elif op[0] == "update" and rids:
                heap.update(rids[op[1] % len(rids)], op[2], op[3])
            elif op[0] == "read" and rids:
                outcome = heap.read(rids[op[1] % len(rids)])
            elif op[0] == "commit":
                manager.commit_wal()
            elif op[0] == "flush":
                manager.flush_all()
        except (ValueError, FileFullError) as error:
            outcome = (type(error), str(error))
        history.append(
            {
                "op": op,
                "outcome": outcome,
                "manager": asdict(manager.stats),
                "pool": asdict(manager.pool.stats),
                "resident": [
                    (f.lba, f.dirty, f.pin_count, f.page.lsn, f.page.to_bytes())
                    for f in manager.pool.frames()
                ],
                "now_us": repr(manager.clock.now_us),
                "breakdown": {
                    k: repr(v) for k, v in manager.clock.breakdown_us.items()
                },
                "next_lsn": manager._next_lsn,
                "no_steal": sorted(manager._txn_locked_lbas),
                "records": heap.record_count,
                "media": _media_digest(device.chip),
                "wal": (
                    asdict(manager.wal.stats),
                    repr(manager.wal.chip.clock.now_us),
                    _media_digest(manager.wal.chip),
                )
                if with_wal
                else None,
            }
        )
    return history


class TestUpdateBracketAgainstParent:
    @pytest.mark.parametrize("ipa", [True, False], ids=["ipa-native", "traditional"])
    @pytest.mark.parametrize("with_wal", [False, True], ids=["no-wal", "wal"])
    @given(ops=_heap_ops)
    @settings(max_examples=60, deadline=None)
    def test_heap_sequences(self, with_wal, ipa, ops):
        with parent_code():
            expected = _run_heap_ops(ops, with_wal, ipa)
        history = _run_heap_ops(ops, with_wal, ipa)
        for step, reference in zip(history, expected):
            assert step == reference, step["op"]

    def test_the_sequences_reach_full_pages_evictions_and_the_wal(self):
        """The strategy above is only worth its name if its ops get there."""
        ops = [("insert", 350, 1)] * 12 + [("update", 0, 3, b"zz"), ("commit",)]
        last = _run_heap_ops(ops + [("insert", 900, 2)] * 5, True, True)[-1]
        assert last["outcome"][0] is FileFullError
        assert last["manager"]["update_ops"] > 13 + 5  # failed probes count
        assert last["manager"]["ipa_flushes"] and last["pool"]["dirty_evictions"]
        assert last["wal"][0]["records_logged"] > 13


# ---------------------------------------------------------------------- #
# The generators' random helpers before the draw kernel (verbatim)
# ---------------------------------------------------------------------- #


def parent_nurand(rng, a, x, y):
    """TPC-C NURand(A, x, y) non-uniform random (C = 0)."""
    if y < x:
        raise ValueError(f"empty NURand range [{x}, {y}]")
    if a < 0:
        raise ValueError(f"NURand A must be >= 0, got {a}")
    return (
        (int(rng.integers(0, a + 1)) | int(rng.integers(x, y + 1)))
        % (y - x + 1)
    ) + x


_PARENT_ZIPF_CDF_CACHE = {}


def _parent_zipf_cdf(n, theta):
    key = (n, theta)
    cdf = _PARENT_ZIPF_CDF_CACHE.get(key)
    if cdf is None:
        weights = np.arange(1, n + 1, dtype=np.float64) ** -theta
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        cdf[-1] = 1.0  # guard fp round-down so a draw of ~1.0 maps in-range
        _PARENT_ZIPF_CDF_CACHE[key] = cdf
    return cdf


def parent_zipf_index(rng, n, theta=1.2):
    if n <= 0:
        raise ValueError(f"zipf_index needs n >= 1, got {n}")
    if theta < 0:
        raise ValueError(f"zipf_index needs theta >= 0, got {theta}")
    if n == 1:
        return 0
    cdf = _parent_zipf_cdf(n, theta)
    return min(int(np.searchsorted(cdf, rng.random(), side="right")), n - 1)


def parent_value(rng, size):
    """``size`` random lowercase letters (one ``rng.integers`` draw)."""
    letters = rng.integers(0, 26, size) + ord("a")
    return letters.astype(np.uint8).tobytes().decode("ascii")


_helper_calls = st.lists(
    st.one_of(
        st.tuples(
            st.just("nurand"),
            st.sampled_from([-1, 0, 255, 1023, 8191]),
            st.integers(min_value=0, max_value=20),
            st.integers(min_value=0, max_value=3000),
        ),
        st.tuples(
            st.just("zipf_index"),
            st.sampled_from([-3, 0, 1, 2, 7, 300, 6000]),
            st.sampled_from([-0.1, 0.0, 0.5, 1.0, 1.2, 3.0]),
        ),
        st.tuples(st.just("value"), st.sampled_from([0, 1, 9, 10, 37])),
    ),
    min_size=1,
    max_size=60,
)

_HELPERS = {
    "nurand": (nurand, parent_nurand),
    "zipf_index": (zipf_index, parent_zipf_index),
    "value": (_value, parent_value),
}


class TestRandomHelpersAgainstParent:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), calls=_helper_calls)
    @settings(max_examples=150, deadline=None)
    def test_same_values_same_errors_same_stream(self, seed, calls):
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        for name, *args in calls:
            live, parent = _HELPERS[name]
            assert outcome(live, rng, *args) == outcome(parent, reference, *args)
        # The follow-up draw, read through the stream and after a release.
        assert draws(rng).random() == reference.random()
        release(rng)
        assert rng.integers(0, 1000) == reference.integers(0, 1000)
        assert rng.random() == reference.random()


# ---------------------------------------------------------------------- #
# Reference: the parent's page-at-a-time garbage collector and write path
# ---------------------------------------------------------------------- #


class ParentBlockManager(BlockManager):
    """``BlockManager`` with the bodies it ran before relocation became one
    ``execute_batch`` call per victim and the host-write path was
    right-sized, verbatim: one ``read_page_with_oob`` + ``program_page``
    per valid page, ``make_ppn`` per allocation, a fresh ``bytearray`` per
    OOB stamp, ``_map`` / ``_invalidate_ppn`` per write."""

    def write(self, lba, data, oob=None):
        self._check_lba(lba)
        ppn = self._allocate()
        if self._oob_meta_enabled:
            oob = self._stamp_meta(oob, lba)
        self.chip.program_page(ppn, data, oob)
        lg = self.ledger
        if lg.enabled and self._oob_meta_enabled:
            # The 17-byte mapping record rode along in the same program;
            # attribute its bytes to metadata, not the host payload.
            lg.shift_bytes("oob_meta", OOB_META_SIZE)
        # Read the mapping only now: GC inside _allocate() may just have
        # migrated this very LBA, and the pre-allocation ppn would be stale.
        old_ppn = self.mapping.get(lba)
        if old_ppn is not None:
            self._invalidate_ppn(old_ppn)
            self.stats.page_invalidations += 1
        self._map(lba, ppn)
        self.appends_done[ppn] = 0
        lt = self.lifetimes
        if lt.enabled:
            lt.on_write(self, lba, lg.current_cause)
        sz = self.sanitizer
        if sz.enabled:
            sz.check_mapping_pair(self, lba, ppn)
        return ppn

    def _stamp_meta(self, oob, lba):
        """Merge the durable mapping record into an outgoing OOB image."""
        buf = (
            bytearray(b"\xff" * self._oob_size)
            if oob is None
            else bytearray(oob)
        )
        buf[self._meta_off :] = pack_oob_meta(lba, self._seq)
        self._seq += 1
        return bytes(buf)

    def _check_lba(self, lba):
        if not 0 <= lba < self.logical_pages:
            raise KeyError(
                f"lba {lba} outside logical range [0, {self.logical_pages})"
            )

    def _map(self, lba, ppn):
        self.mapping[lba] = ppn
        self._rmap[ppn] = lba
        block_id = ppn // self.chip.geometry.pages_per_block
        self._valid[block_id] += 1

    def _invalidate_ppn(self, ppn):
        self._rmap.pop(ppn, None)
        block_id = ppn // self.chip.geometry.pages_per_block
        self._valid[block_id] -= 1
        self.appends_done.pop(ppn, None)

    def _background_step(self):
        budget = self.gc_migration_budget
        offsets = self._usable_offsets
        while budget > 0:
            if self._bg_victim is None:
                if len(self._free) > self.gc_low_watermark:
                    return
                victim = self._pick_victim()
                if victim is None:
                    return  # nothing reclaimable; emergency path decides
                self._bg_victim = victim
                self._bg_cursor = 0
            victim = self._bg_victim
            while budget > 0 and self._bg_cursor < len(offsets):
                page_offset = offsets[self._bg_cursor]
                self._bg_cursor += 1
                if self._migrate_page(victim, page_offset):
                    budget -= 1
                    self.stats.background_gc_migrations += 1
            if self._bg_cursor < len(offsets):
                return  # budget exhausted mid-victim; resume next op
            self._finish_bg_victim()

    def _finish_bg_victim(self):
        """Drain and erase the open background victim (if any)."""
        victim = self._bg_victim
        if victim is None:
            return
        offsets = self._usable_offsets
        while self._bg_cursor < len(offsets):
            page_offset = offsets[self._bg_cursor]
            self._bg_cursor += 1
            if self._migrate_page(victim, page_offset):
                self.stats.background_gc_migrations += 1
        self._bg_victim = None
        self._bg_cursor = 0
        tr = self.tracer
        if not tr.enabled:
            self._erase_victim(victim, None, background=True)
            return
        with tr.span("gc_erase", victim=victim, background=True) as span:
            self._erase_victim(victim, span, background=True)

    def _allocate_no_gc(self):
        while True:
            if self._active is None:
                if not self._free:
                    raise DeviceFullError("free-block pool exhausted")
                self._active = self._free.popleft()
                self._cursor = 0
            if self._cursor < len(self._usable_offsets):
                page_offset = self._usable_offsets[self._cursor]
                self._cursor += 1
                return self.chip.geometry.make_ppn(self._active, page_offset)
            self._active = None  # block exhausted; open another

    def _pick_victim(self):
        active = self._active
        free = set(self._free)
        candidates = [
            b for b in self.block_ids if b != active and b not in free
        ]
        if not candidates:
            return None
        if self.wear_leveling_gap is not None:
            worn = self._wear_leveling_victim(candidates)
            if worn is not None:
                return worn
        victim = min(candidates, key=lambda b: self._valid[b])
        if self._valid[victim] >= len(self._usable_offsets):
            return None  # nothing reclaimable
        return victim

    def _reclaim_inner(self, victim, span):
        migrated = 0
        for page_offset in self._usable_offsets:
            if self._migrate_page(victim, page_offset):
                migrated += 1
        if span is not None:
            span.set(migrated=migrated)
        self._erase_victim(victim, span)

    def _migrate_page(self, victim, page_offset):
        """Move one valid page off the victim; True if a copy happened."""
        ppn = self.chip.geometry.make_ppn(victim, page_offset)
        lba = self._rmap.get(ppn)
        if lba is None:
            return False
        lg = self.ledger
        if not lg.enabled:
            return self._migrate_page_inner(victim, ppn, lba)
        with lg.cause(self._gc_cause(victim)):
            return self._migrate_page_inner(victim, ppn, lba)

    def _migrate_page_inner(self, victim, ppn, lba):
        data, oob = self.chip.read_page_with_oob(ppn)
        new_ppn = self._allocate_no_gc()
        self.chip.program_page(new_ppn, data, oob)
        lg = self.ledger
        if lg.enabled and self._oob_meta_enabled and has_oob_meta(
            oob[self._meta_off:]
        ):
            # The copied page carried its durable mapping record along.
            lg.shift_bytes("oob_meta", OOB_META_SIZE)
        appends = self.appends_done.pop(ppn, 0)
        self.appends_done[new_ppn] = appends
        del self._rmap[ppn]
        self._valid[victim] -= 1
        self._map(lba, new_ppn)
        self.stats.gc_page_migrations += 1
        sz = self.sanitizer
        if sz.enabled:
            sz.check_mapping_pair(self, lba, new_ppn)
        return True


#: 32 blocks stripe over 4 channels; 8 pages a block keep reclaims frequent.
GC_GEO = FlashGeometry(page_size=256, oob_size=128, pages_per_block=8, blocks=32)
GC_BACKENDS = ("page-mapping", "ipa-ftl", "noftl-2-regions")
#: name -> BlockManager options of the device under test.
GC_MODES = {
    "foreground": {},
    "background-1": {"background_gc": True, "gc_migration_budget": 1},
    "background-8": {"background_gc": True, "gc_migration_budget": 8},
}


def _gc_stack(backend, parent, channels, gc_options, ledger, **chip_options):
    """One device (+ its block managers and ledger), shipped or parent."""
    mode = FlashMode.MLC if backend == "page-mapping" else FlashMode.PSLC
    if channels == 1:
        chip = FlashChip(GC_GEO, mode=mode, **chip_options)
        leaves = [chip]
    else:
        chip = FlashDevice(GC_GEO, channels=channels, mode=mode, **chip_options)
        leaves = chip.chips
        assert chip._overlap
    with ExitStack() as stack:
        if parent:
            for module in (page_mapping_module, ipa_ftl_module, noftl_module):
                stack.enter_context(
                    mock.patch.object(module, "BlockManager", ParentBlockManager)
                )
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
    assert all(type(m) is (ParentBlockManager if parent else BlockManager)
               for m in managers)
    book = None
    if ledger:
        book = WriteLedger()
        for target in [device, chip, *leaves, *managers]:
            target.ledger = book
        for leaf in leaves:
            book.watch_chip(leaf)
    return device, chip, managers, book


def _gc_media_digest(chip):
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
    every operation, and after one that reclaimed a block (``full``) the
    managers' whole state, the ledger and the media as well."""
    state = {
        "now_us": repr(chip.clock.now_us),
        "breakdown": {k: repr(v) for k, v in chip.clock.breakdown_us.items()},
        "flash": _counters(chip.stats),
        "device": _counters(device.stats),
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
                "bg": (m._bg_victim, m._bg_cursor),
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
                 prepare=None, stop_at=None, **chip_options):
    """Drive parent and shipped stacks together, comparing as ``_gc_state``
    says; four LBAs in five are in use (of every region).  ``prepare`` is
    applied to both filled stacks and returns the LBAs the stream must
    leave alone; ``stop_at`` ends the run at the first op that raises it.

    That op is where the two collectors part by design when a background
    move failed: the shipped scan cursor stays on the page (still mapped),
    the parent's steps past it.  The state there is compared without the
    cursors, which must name the same victim, one page apart at most."""
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
        expected = _gc_apply(backend, ref[0], op)
        assert outcome == expected, (step, op)
        # An op that reclaimed a block, or one the device failed.
        full = live[0].stats.gc_erases != erases or isinstance(outcome, tuple)
        reclaims += live[0].stats.gc_erases != erases
        got, want = _gc_state(*live, full=full), _gc_state(*ref, full=full)
        stop = isinstance(outcome, tuple) and outcome[0] is stop_at
        if stop:
            for mine, theirs in zip(got["managers"], want["managers"]):
                (victim, cursor), (ref_victim, ref_cursor) = (
                    mine.pop("bg"), theirs.pop("bg")
                )
                assert victim == ref_victim
                assert cursor in (ref_cursor, ref_cursor - 1)
        assert got == want, (step, op)
        if stop:
            return live, ref, reclaims
    assert _gc_state(*live, full=True) == _gc_state(*ref, full=True)
    return live, ref, reclaims


class TestGarbageCollectorAgainstParent:
    @pytest.mark.parametrize("channels", [1, 4], ids=["1-channel", "4-channels"])
    @pytest.mark.parametrize("gc_mode", sorted(GC_MODES))
    @pytest.mark.parametrize("backend", GC_BACKENDS)
    def test_lockstep_over_a_seeded_overwrite_stream(
        self, backend, gc_mode, channels
    ):
        live, _ref, reclaims = _gc_lockstep(backend, channels, GC_MODES[gc_mode])
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
        live, _ref, _ = _gc_lockstep(
            "page-mapping", channels, options, ledger=True, ops=2500
        )
        assert live[0].stats.wear_leveling_moves > 5
        assert live[3].by_cause["wear_leveling"].programs > 5

    @pytest.mark.parametrize("gc_mode", sorted(GC_MODES))
    @pytest.mark.parametrize("backend", GC_BACKENDS)
    def test_ledger_attribution_is_conserved(self, backend, gc_mode):
        live, ref, _ = _gc_lockstep(
            backend, 1, GC_MODES[gc_mode], ledger=True, ops=900
        )
        book = live[3]
        assert book.conservation_errors() == []
        assert book.by_cause["gc_migration"].programs == (
            live[0].stats.gc_page_migrations
        )
        moved = book.by_cause["gc_migration"]
        # Every relocated page carried its mapping record: its 17 bytes
        # were shifted to ``oob_meta``, once per copy.
        assert moved.bytes == moved.programs * (
            GC_GEO.page_size + GC_GEO.oob_size - OOB_META_SIZE
        )
        assert {r.cause: r.as_dict() for r in book.records()} == {
            r.cause: r.as_dict() for r in ref[3].records()
        }

    @pytest.mark.parametrize("channels", [1, 4], ids=["1-channel", "4-channels"])
    @pytest.mark.parametrize("gc_mode", sorted(GC_MODES))
    def test_an_unreadable_source_stops_both_collectors_at_the_same_place(
        self, gc_mode, channels
    ):
        """A valid page that is not its block's first goes uncorrectable.
        When its block is collected the batch fails at that row: the rows
        before it are booked, the failed sense is charged, the destination
        it never reached goes back to the allocation stream — cursor, free
        pool, maps and media are the page-at-a-time loop's."""

        def break_a_page(stack):
            _device, chip, (manager,), _book = stack
            ppb = GC_GEO.pages_per_block
            block = 2  # filled in LBA order: every page of it is valid
            assert manager._valid[block] == len(manager._usable_offsets)
            ppn = block * ppb + manager._usable_offsets[3]
            counts = np.zeros(chip.page_at(ppn)._disturb.shape, dtype=np.int64)
            counts[0] = 1_000
            chip.page_at(ppn).add_disturb(counts)
            return {manager._rmap[ppn]}  # never rewritten: it stays valid

        live, _ref, _ = _gc_lockstep(
            "page-mapping", channels, GC_MODES[gc_mode], ops=3000,
            prepare=break_a_page, stop_at=EccUncorrectableError,
        )
        device, chip, (manager,), _book = live
        assert chip.stats.ecc_uncorrectable_events == 1
        # Senses that moved nothing: the failed one only.
        assert chip.stats.page_reads == (
            device.stats.host_reads + device.stats.gc_page_migrations + 1
        )
        # Block 2 is still there with the broken page valid in it ...
        assert manager._valid[2] >= 1 and 2 not in manager._free
        broken = 2 * GC_GEO.pages_per_block + manager._usable_offsets[3]
        assert broken in manager._rmap
        if manager._bg_victim == 2:
            # ... and an open background scan stays on it.
            assert manager._usable_offsets[manager._bg_cursor] == 3
        # ... and no page was allocated that nothing was programmed to.
        ppb = GC_GEO.pages_per_block
        assert manager._active is not None
        for position, offset in enumerate(manager._usable_offsets):
            state = chip.page_at(manager._active * ppb + offset).state
            assert (state is PageState.PROGRAMMED) == (position < manager._cursor)

    @pytest.mark.parametrize("gc_mode", sorted(GC_MODES))
    def test_running_out_of_blocks_in_the_middle_of_a_victim(
        self, gc_mode, monkeypatch
    ):
        """Blocks retire after three erases until a relocation finds the
        free pool empty: the pages that got a destination have moved, the
        page that did not was sensed (the loop reads before it allocates),
        and ``DeviceFullError`` comes out of the same op with the same
        state — in the foreground, again from every write after it.

        In the background, where the pool runs dry the next background
        step fails on the first page of the victim it opens, and there
        the two collectors part by design.  The shipped scan cursor stays
        *on* that page, so it stays mapped, every later step fails on it
        again, and the victim is never erased with it inside: under
        ``REPRO_SANITIZE=1`` every audit passes.  The parent steps past
        the page; driven on, it erases the victim with the page still
        mapped, and the sanitizer flags the lost page (page conservation).
        """
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        foreground = gc_mode == "foreground"
        live, ref, _ = _gc_lockstep(
            "page-mapping", 1, GC_MODES[gc_mode], ops=700, endurance_limit=3,
            stop_at=None if foreground else DeviceFullError,
        )
        device, chip, (manager,), _book = live
        assert device.stats.retired_blocks >= 8
        # Senses that moved nothing: one per relocation that ran dry.
        orphans = chip.stats.page_reads - (
            device.stats.host_reads + device.stats.gc_page_migrations
        )
        assert orphans >= 2 if foreground else orphans == 1
        if foreground:
            return
        mapping = dict(manager.mapping)
        writes = [("write", lba, 7) for lba in range(1, 200, 5)]
        for op in writes:
            assert _gc_apply("page-mapping", device, op)[0] is DeviceFullError
        victim = manager._bg_victim
        stuck = victim * GC_GEO.pages_per_block + manager._usable_offsets[
            manager._bg_cursor
        ]
        assert manager.mapping == mapping and stuck in manager._rmap
        assert chip.page_at(stuck).state is PageState.PROGRAMMED
        assert victim not in manager._free
        Sanitizer().check_block_manager(manager)

        with pytest.raises(PhysicsViolationError, match="page conservation"):
            for op in writes:
                _gc_apply("page-mapping", ref[0], op)
