"""Spec models of ``repro.core``: the change tracker, the delta-record
codec and page reconstruction, one byte at a time.

``RefChangeTracker`` classifies every changed byte on its own (header,
body or delta area + footer) and keeps plain dicts and sets; the codec
builds and parses a record field by field with ``int.to_bytes``.
"""

import re

from repro.core.config import PAGE_FOOTER_SIZE, PAGE_HEADER_SIZE, PAIR_SIZE
from repro.core.delta import DeltaFormatError, DeltaRecord
from repro.core.reconstruct import ReconstructionError

_CONTROL_TAG = 0x40
_ERASED = 0xFF


class RefChangeTracker:
    def __init__(self, scheme, existing_records, header_end, body_end):
        self.scheme = scheme
        self.existing_records = existing_records
        self.header_end = header_end
        self.body_end = body_end
        self.records = []
        self.out_of_place = not scheme.enabled
        self.meta_changed = False
        self.open_op = None
        self.net_changed_offsets = set()
        self.meta_changed_offsets = set()
        self.op_sizes = []
        self.last_op_changes = {}
        self.open_raw = None
        self.open_meta = None

    def begin_op(self):
        if self.open_raw is not None:
            raise RuntimeError("nested update operations are not supported")
        self.open_raw = {}
        self.open_meta = {}
        if not self.out_of_place:
            self.open_op = {}

    def end_op(self):
        size = 0
        if self.open_raw is not None:
            raw, self.open_raw = self.open_raw, None
            meta, self.open_meta = self.open_meta or {}, None
            size = len(raw)
            if raw:
                self.op_sizes.append(size)
            self.last_op_changes = {**raw, **meta}
        if self.open_op is None:
            return size
        changes, self.open_op = self.open_op, None
        if self.out_of_place or not changes:
            return size
        if self.existing_records + len(self.records) + 1 > self.scheme.n_records:
            self.mark_out_of_place()
            return size
        self.records.append(changes)
        return size

    def mark_out_of_place(self):
        self.out_of_place = True
        self.records.clear()
        self.open_op = None

    def on_write(self, offset, old, new):
        for i in range(len(new)):
            if old[i] == new[i]:
                continue
            pos = offset + i
            if pos < self.header_end or pos >= self.body_end:
                self.meta_changed = True
                self.meta_changed_offsets.add(pos)
                if self.open_meta is not None:
                    self.open_meta[pos] = new[i]
                continue
            self.net_changed_offsets.add(pos)
            if self.open_raw is not None:
                self.open_raw[pos] = new[i]
            if self.out_of_place:
                continue
            if self.open_op is None:
                self.mark_out_of_place()
                continue
            self.open_op[pos] = new[i]
            if len(self.open_op) > self.scheme.m_bytes:
                self.mark_out_of_place()

    def on_stamp(self, offset, width, old, new):
        """An integer field of the header or footer: its bytes."""
        self.on_write(
            offset, old.to_bytes(width, "little"), new.to_bytes(width, "little")
        )

    @property
    def net_changed_bytes(self):
        return len(self.net_changed_offsets)

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

    def build_delta_records(self, meta_header, meta_footer):
        """One record per pending op, each with the final metadata; one
        pair-less record for a metadata-only change."""
        if self.out_of_place:
            raise RuntimeError("page is flagged out-of-place")
        groups = self.records or ([{}] if self.meta_changed else [])
        return [
            DeltaRecord(
                pairs=sorted(group.items()),
                meta_header=meta_header,
                meta_footer=meta_footer,
            )
            for group in groups
        ]

    def reset_after_flush(self, new_existing_records):
        self.existing_records = new_existing_records
        self.records = []
        self.out_of_place = not self.scheme.enabled
        self.meta_changed = False
        self.open_op = None
        self.open_raw = None
        self.open_meta = None
        self.net_changed_offsets = set()
        self.meta_changed_offsets = set()
        self.op_sizes = []


def ref_span_runs(offset, diff, new):
    """``(offset, bytes)`` runs of ``new`` where ``diff`` is nonzero: its
    maximal nonzero stretches, as a regex finds them."""
    return [
        (offset + match.start(), new[match.start() : match.end()])
        for match in re.finditer(rb"[^\x00]+", diff)
    ]


def ref_run_changes(runs):
    """Offset -> value of ``(offset, bytes)`` runs, one byte at a time."""
    changes = {}
    for offset, data in runs:
        for i, value in enumerate(data):
            changes[offset + i] = value
    return changes


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
