"""Byte-granular change tracking in the buffer pool (paper Section 3).

    "When a transaction updates the content of the page, the buffer
    manager checks if it conforms to the IPA N x M scheme.  Thus, the
    total number of delta-records (including the existing) cannot exceed
    N, while the number of changed bytes per delta-record should not
    exceed M. [...] The violation of one of the above conditions means
    that upon eviction the page cannot be written out using IPA [...]
    In this case, the out-of-place flag is set, and further updates are
    not tracked until eviction."

The tracker attaches to a frame's page as a write hook.  Each *update
operation* (bracketed by :meth:`begin_op`/:meth:`end_op`) becomes one
candidate delta-record; header/footer bytes are not counted against M
because they travel wholesale in the record's delta_metadata.
"""

from __future__ import annotations

from repro.core.config import IpaScheme
from repro.core.delta import DeltaRecord


class ChangeTracker:
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
