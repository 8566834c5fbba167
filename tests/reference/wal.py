"""Spec models of ``repro.engine.wal``'s codecs: log records and frames
built and parsed one field at a time with ``int.to_bytes``."""

import zlib

from repro.engine.wal import FRAME_HEADER_SIZE, FormatRecord, PageUpdateRecord

_ERASED = 0xFF
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


def ref_runs(changes):
    """An offset -> value dict as the WAL's runs: one byte each, in order."""
    return [(offset, bytes([value])) for offset, value in sorted(changes.items())]


def ref_format_encode(record):
    out = bytearray()
    out.append(_MAGIC_FORMAT)
    out += record.lsn.to_bytes(8, "little")
    out += record.lba.to_bytes(4, "little")
    out += record.file_id.to_bytes(2, "little")
    return bytes(out)


def ref_encode(record):
    if isinstance(record, FormatRecord):
        return ref_format_encode(record)
    return ref_update_encode(record)


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
