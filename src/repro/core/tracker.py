"""Byte-granular change tracking in the buffer pool (paper Section 3).

    "When a transaction updates the content of the page, the buffer
    manager checks if it conforms to the IPA N x M scheme.  Thus, the
    total number of delta-records (including the existing) cannot exceed
    N, while the number of changed bytes per delta-record should not
    exceed M. [...] The violation of one of the above conditions means
    that upon eviction the page cannot be written out using IPA [...]
    In this case, the out-of-place flag is set, and further updates are
    not tracked until eviction."

Each *update operation* (bracketed by :meth:`begin_op`/:meth:`end_op`)
becomes one candidate delta-record; header/footer bytes are not counted
against M because they travel wholesale in the record's delta_metadata.
Changed body bytes are counted per residency: in a set of offsets, or for
a record-sized span of a bracketed op, ORed into a byte map.  The WAL's
redo payload, :attr:`ChangeTracker.last_op_runs`, is the last op's
changed bytes as sorted ``(offset, new bytes)`` runs; a span is cut only
where its XOR diff is zero, never visited one byte at a time.

The two operations every load and every transaction make most are heard
whole, before the page changes: a single-field update with its LSN stamp
(:meth:`ChangeTracker.write_op`) and a record insert with its slot, its
slot-count stamp and its LSN stamp (:meth:`ChangeTracker.insert_op`).
Each is defined as its bracket of ``begin_op``, ``on_write`` /
``on_stamp`` calls and ``end_op``, diffs the written bytes once, and
builds the WAL runs from that same diff.
"""

from __future__ import annotations

import re
from itertools import compress

from repro.core.config import IpaScheme
from repro.core.delta import DeltaRecord

#: Writes longer than this are diffed with one integer XOR instead of a
#: per-byte loop (which wins below it: balance and slot writes).
_LOOP_MAX = 16
#: ``_last`` of a tracker that has closed no operation yet.
_NO_OP: tuple = ({}, None, None)
#: The changed stretches of an XOR diff: its maximal nonzero runs.
_CHANGED = re.compile(rb"[^\x00]+").finditer
_BOUNDS = re.Match.span


def _pairs(offset: int, diff: bytes, new: bytes) -> dict[int, int]:
    """Page offset -> new value of the bytes ``diff`` (old XOR new) marks."""
    return dict(compress(zip(range(offset, offset + len(diff)), new), diff))


def _span_runs(offset: int, diff: bytes, new: bytes) -> list:
    """``(offset, bytes)`` runs of ``new`` that ``diff`` marks changed."""
    if 0 not in diff:
        return [(offset, new)]
    if len(diff) > _LOOP_MAX:
        return [
            (offset + start, new[start:end])
            for start, end in map(_BOUNDS, _CHANGED(diff))
        ]
    # A field or a stamp: its zero-free pieces, without a regex scan.
    runs = []
    start = 0
    for piece in diff.split(b"\0"):
        if piece:
            end = start + len(piece)
            runs.append((offset + start, new[start:end]))
            start = end + 1
        else:
            start += 1
    return runs


class ChangeTracker:
    """Tracks one buffer-resident page's updates against an N x M scheme.

    The page's observer: body bytes arrive via :meth:`on_write`, its own
    integer fields via :meth:`on_stamp`, a field write with its LSN stamp
    whole via :meth:`write_op`, which keeps per-byte pairs only while a
    delta-record may result or no WAL wants the runs, and an insert with
    its slot and stamps whole via :meth:`insert_op`.

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
        "_net",
        "_net_map",
        "_meta_masks",
        "op_sizes",
        "_open_raw",
        "_open_meta",
        "_open_span",
        "_last",
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
        # Distinct body bytes changed: offsets of small writes, plus (once
        # a record-sized span arrived) a byte map of the page whose
        # nonzero bytes mark changed offsets.
        self._net: set[int] = set()
        self._net_map: bytearray | None = None
        # Header/footer changes: offset -> mask whose nonzero byte i
        # (little-endian) marks offset + i changed — the OR of every
        # stamp's XOR there, or 1 for a byte write.
        self._meta_masks: dict[int, int] | None = None
        #: Changed-byte count of every bracketed op, conformant or not —
        #: the raw material of trace capture (E6) and the N x M ablation.
        self.op_sizes: list[int] = []
        self._open_raw: dict[int, int] | None = None
        # The open op's header/footer changes in order, allocated by its
        # first one: byte writes as offset -> value dicts, stamps as
        # (offset, xor, new) tuples (see last_op_runs).
        self._open_meta: list | None = None
        # A record-sized body write that opened the op, kept as
        # (offset, diff, new) until the WAL needs its runs; later writes
        # of the op never overlap it (see on_write).
        self._open_span: tuple[int, bytes, bytes] | None = None
        # (raw, meta, span) of the last closed op; merged only when
        # someone asks (see last_op_runs).
        self._last = _NO_OP

    # ------------------------------------------------------------------ #
    # Operation bracketing
    # ------------------------------------------------------------------ #

    def begin_op(self) -> None:
        """Start one update operation (one candidate delta-record)."""
        if self._open_raw is not None:
            raise RuntimeError("nested update operations are not supported")
        self._open_raw = {}
        if not self.out_of_place:
            self._open = {}

    def end_op(self) -> int:
        """Close the operation; promote its changes to a delta-record.

        Returns:
            The distinct body bytes the operation changed — what it just
            appended to :attr:`op_sizes` — or 0 when it changed none.
        """
        size = 0
        raw = self._open_raw
        if raw is not None:
            size = len(raw)
            span = self._open_span
            if span is not None:
                size += len(span[1]) - span[1].count(0)
            if size:
                self.op_sizes.append(size)
            self._last = (raw, self._open_meta, span)
            self._open_raw = self._open_meta = self._open_span = None
        changes = self._open
        if changes is None:
            return size
        self._open = None
        if not self.out_of_place and changes:
            self._close(changes)
        return size

    def _close(self, changes: dict[int, int]) -> None:
        """A closed op's changes become a delta-record, unless N x M says no."""
        room = self.scheme.n_records - self.existing_records - len(self.records)
        if room < 1 or len(changes) > self.scheme.m_bytes:
            self.mark_out_of_place()
        else:
            self.records.append(changes)

    def write_op(
        self, offset: int, old: bytes, new: bytes, at: int, old_stamp: int,
        stamp: int, runs: bool,
    ) -> tuple[int, list[tuple[int, bytes]] | None]:
        """``begin_op``, ``on_write``, ``on_stamp(at, 8, old_stamp, stamp)``
        and ``end_op``, diffing once.  Returns ``end_op``'s size and, with
        ``runs``, :attr:`last_op_runs` cut from the diff and the stamp."""
        if self._open_raw is not None:
            self.begin_op()  # refused: an operation is open
        size = len(new)
        changes: dict[int, int] = {}
        if runs or size > _LOOP_MAX:
            xor = int.from_bytes(old, "little") ^ int.from_bytes(new, "little")
            diff = xor.to_bytes(size, "little")
            count = size - diff.count(0)
            if count and not self.out_of_place and count <= self.scheme.m_bytes:
                changes = _pairs(offset, diff, new)
        else:
            pos = offset
            for before, after in zip(old, new):
                if before != after:
                    changes[pos] = after
                pos += 1
            count = len(changes)
        span = None
        if changes:
            self._net.update(changes)
            if not self.out_of_place:
                self._close(changes)
        elif count:
            span = (offset, diff, new)
            self._net.update(compress(range(offset, offset + size), diff))
            if not self.out_of_place:
                self.mark_out_of_place()
        if count:
            self.op_sizes.append(count)
        self.on_stamp(at, 8, old_stamp, stamp)
        xor = old_stamp ^ stamp
        self._last = (changes, [(at, xor, stamp)] if xor else None, span)
        if not runs:
            return count, None
        width = (xor.bit_length() + 7) >> 3
        if not xor & 0xFF or (width > 2 and 0 in xor.to_bytes(width, "little")):
            return count, self.last_op_runs  # the LSN's changes are not one run
        out = [(at, (stamp & ((1 << (width << 3)) - 1)).to_bytes(width, "little"))]
        if count:
            out += [(offset, new)] if 0 not in diff else _span_runs(offset, diff, new)
        return count, out

    def insert_op(
        self, offset: int, old: bytes, new: bytes, slot_at: int, old_slot: bytes,
        slot: bytes, count_at: int, old_count: int, new_count: int, at: int,
        old_stamp: int, stamp: int, runs: bool,
    ) -> tuple[int, list[tuple[int, bytes]] | None]:
        """``begin_op``, ``on_write(offset, old, new)`` (the record),
        ``on_write(slot_at, old_slot, slot)``, ``on_stamp(count_at, 4,
        old_count, new_count)`` (slot count + free lower),
        ``on_stamp(at, 8, old_stamp, stamp)`` (the LSN) and ``end_op``.
        Returns ``end_op``'s size and, with ``runs``, :attr:`last_op_runs`.

        A body record whose changed bytes exceed M, beside its slot, is
        diffed once, and :attr:`last_op_runs` cuts that same diff; any
        other insert runs those six calls.
        """
        if self._open_raw is not None:
            self.begin_op()  # refused: an operation is open
        size = len(new)
        end = offset + size
        header_end = self._header_end
        body_end = self._body_end
        slot_end = slot_at + len(slot)
        if (
            size > _LOOP_MAX
            and header_end <= offset
            and end <= body_end
            and header_end <= slot_at
            and slot_end <= body_end
            and (slot_at >= end or slot_end <= offset)
        ):
            xor = int.from_bytes(old, "little") ^ int.from_bytes(new, "little")
            diff = xor.to_bytes(size, "little")
            changed = size - diff.count(0)
            if changed > self.scheme.m_bytes:
                # on_write's record-sized span, kept for last_op_runs.
                self._map_span(offset, size, xor)
                raw = {}  # the slot, as on_write's loop takes it
                pos = slot_at
                for before, after in zip(old_slot, slot):
                    if before != after:
                        raw[pos] = after
                    pos += 1
                self._net.update(raw)
                size = changed + len(raw)
                self.op_sizes.append(size)
                # The two stamps, heard as an open op's.
                self._open_raw = raw
                self.on_stamp(count_at, 4, old_count, new_count)
                self.on_stamp(at, 8, old_stamp, stamp)
                self._last = (raw, self._open_meta, (offset, diff, new))
                self._open_raw = self._open_meta = None
                return size, self.last_op_runs if runs else None
        self.begin_op()
        self.on_write(offset, old, new)
        self.on_write(slot_at, old_slot, slot)
        self.on_stamp(count_at, 4, old_count, new_count)
        self.on_stamp(at, 8, old_stamp, stamp)
        size = self.end_op()
        return size, self.last_op_runs if runs else None

    @property
    def last_op_runs(self) -> list[tuple[int, bytes]]:
        """Every changed byte of the last closed op, INCLUDING header/footer
        bytes, as sorted disjoint ``(offset, new bytes)`` runs — the WAL's
        redo payload.  A deferred span is cut only where its diff is zero;
        the op's small body writes and its header/footer changes are
        merged in by offset."""
        raw, meta, span = self._last
        runs = []
        small = raw
        if meta:
            small = dict(raw)
            # In the order they happened, so a later change of a byte
            # wins exactly as it did on the page.
            for entry in meta:
                if entry.__class__ is dict:
                    small.update(entry)
                    continue
                pos, diff, new = entry
                while diff:
                    if diff & 0xFF:
                        small[pos] = new & 0xFF
                    pos += 1
                    diff >>= 8
                    new >>= 8
        if span is not None:
            runs += _span_runs(*span)
        if small:
            offsets = sorted(small)
            values = bytes(map(small.__getitem__, offsets))
            base = offsets[0]
            # Within a run, offset - index is constant.
            start = 0
            for i, offset in enumerate(offsets):
                if offset - i != base:
                    runs.append((base + start, values[start:i]))
                    start = i
                    base = offset - i
            runs.append((base + start, values[start:]))
        # The span, the small body writes and the header/footer never
        # share a byte (see on_write): offsets alone order the runs.
        runs.sort()
        return runs

    @property
    def net_changed_bytes(self) -> int:
        """How many distinct body bytes changed this residency (E7)."""
        net_map = self._net_map
        if net_map is None:
            return len(self._net)
        self._fold_net()
        return len(net_map) - net_map.count(0)

    @property
    def net_changed_offsets(self) -> set[int]:
        """The distinct body bytes changed this residency, as offsets."""
        net_map = self._net_map
        if net_map is None:
            return self._net
        self._fold_net()
        return set(compress(range(len(net_map)), net_map))

    def _map_span(self, offset: int, size: int, xor: int) -> None:
        """Count a record-sized span's changed bytes (the nonzero bytes of
        ``xor``, old XOR new) in the byte map; more than M of them put the
        residency out of place."""
        net_map = self._net_map
        if net_map is None:
            net_map = self._net_map = bytearray(self._body_end)
            self._fold_net()
        end = offset + size
        net_map[offset:end] = (
            int.from_bytes(net_map[offset:end], "little") | xor
        ).to_bytes(size, "little")
        if not self.out_of_place:
            self.mark_out_of_place()

    def _fold_net(self) -> None:
        """Move the small writes' offsets into the byte map."""
        net_map = self._net_map
        for offset in self._net:
            net_map[offset] = 1
        self._net.clear()

    @property
    def meta_changed_offsets(self) -> set[int]:
        """Distinct header/footer bytes changed (IPL logs these too)."""
        out: set[int] = set()
        for offset, mask in (self._meta_masks or {}).items():
            while mask:
                if mask & 0xFF:
                    out.add(offset)
                offset += 1
                mask >>= 8
        return out

    def mark_out_of_place(self) -> None:
        """Give up on IPA for this residency; stop tracking."""
        self.out_of_place = True
        self.records.clear()
        self._open = None

    # ------------------------------------------------------------------ #
    # Write observation (SlottedPage hooks)
    # ------------------------------------------------------------------ #

    def on_stamp(self, offset: int, width: int, old: int, new: int) -> None:
        """Observe the page writing one of its own integer fields.

        The field (``width`` bytes, little-endian, from ``old`` to
        ``new``) lies wholly inside the header or the delta area + footer.
        Exactly ``on_write(offset, old.to_bytes(width, "little"),
        new.to_bytes(width, "little"))``, without building the bytes:
        the XOR names every changed byte, so ``width`` is not needed.
        """
        diff = old ^ new
        if not diff:
            return
        self.meta_changed = True
        masks = self._meta_masks
        if masks is None:
            self._meta_masks = {offset: diff}
        elif offset in masks:
            masks[offset] |= diff
        else:
            masks[offset] = diff
        if self._open_raw is not None:
            meta = self._open_meta
            if meta is None:
                self._open_meta = [(offset, diff, new)]
            else:
                meta.append((offset, diff, new))

    def on_write(self, offset: int, old: bytes, new: bytes) -> None:
        """Observe one page mutation (``old`` -> ``new``, equally long).

        A write lies in one region — header, body, or delta area + footer
        — and is classified once.  One that straddles a region boundary
        is split there and its pieces observed in offset order, which is
        what observing it byte by byte amounts to.
        """
        if old == new:
            return
        size = len(new)
        end = offset + size
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
        if size > _LOOP_MAX:
            xor = int.from_bytes(old, "little") ^ int.from_bytes(new, "little")
            diff = xor.to_bytes(size, "little")
            if (
                in_body
                and size - diff.count(0) > self.scheme.m_bytes
                and not self._open_raw
                and self._open_span is None
            ):
                # More bytes than a delta-record holds, and nothing this op
                # wrote before could overlap them: only the count matters
                # now, the runs are cut if the WAL asks.
                self._map_span(offset, size, xor)
                if self._open_raw is not None:
                    self._open_span = (offset, diff, new)
                return
            changed = _pairs(offset, diff, new)
        else:
            changed = {}
            pos = offset
            for before, after in zip(old, new):
                if before != after:
                    changed[pos] = after
                pos += 1
        if not in_body:
            # Header/footer: shipped via delta_metadata, free of charge.
            self.meta_changed = True
            masks = self._meta_masks
            if masks is None:
                masks = self._meta_masks = {}
            for pos in changed:
                if pos in masks:
                    masks[pos] |= 1
                else:
                    masks[pos] = 1
            if self._open_raw is not None:
                meta = self._open_meta
                if meta is None:
                    self._open_meta = [changed]
                else:
                    meta.append(changed)
            return
        self._net.update(changed)
        raw = self._open_raw
        if raw is not None:
            span = self._open_span
            if span is not None and offset < span[0] + len(span[1]) and span[0] < end:
                # Overlaps the deferred span, so order matters after all.
                self._open_raw = raw = {**_pairs(*span), **raw}
                self._open_span = None
            raw.update(changed)
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
            self.records
            or self.meta_changed
            or self._net
            or self._net_map is not None
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
        self._open_span = None
        self._net = set()
        self._net_map = None
        self._meta_masks = None
        self.op_sizes = []
