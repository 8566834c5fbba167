"""Spec model of ``repro.engine.schema``: one column at a time.

Each column is sliced out of the record at its running offset and
converted by its own codec lookup; a decoded record is a plain ``dict``
with every CHAR column already stripped and decoded.
"""

import struct

from repro.engine.schema import ColumnType

_REF_STRUCT = {
    ColumnType.INT32: struct.Struct("<i"),
    ColumnType.INT64: struct.Struct("<q"),
    ColumnType.FLOAT64: struct.Struct("<d"),
}


def ref_column_width(column):
    if column.type is ColumnType.CHAR:
        return column.size
    return _REF_STRUCT[column.type].size


def ref_column_encode(column, value):
    if column.type is ColumnType.CHAR:
        if not isinstance(value, (str, bytes, bytearray)):
            raise TypeError(
                f"CHAR column '{column.name}' takes str or bytes, "
                f"got {type(value).__name__}"
            )
        if not value.isascii():
            raise ValueError(
                f"CHAR column '{column.name}' takes ASCII only, got {value!r}"
            )
        raw = value.encode("ascii") if isinstance(value, str) else bytes(value)
        if len(raw) > column.size:
            raise ValueError(
                f"value of {len(raw)} bytes exceeds CHAR({column.size}) "
                f"column '{column.name}'"
            )
        return raw.ljust(column.size, b" ")
    return _REF_STRUCT[column.type].pack(value)


def ref_column_decode(column, raw):
    if column.type is ColumnType.CHAR:
        return raw.rstrip(b" ").decode("ascii")
    return _REF_STRUCT[column.type].unpack(raw)[0]


def ref_schema_encode(columns, values):
    missing = [c.name for c in columns if c.name not in values]
    if missing:
        raise ValueError(f"missing columns: {missing}")
    return b"".join(ref_column_encode(c, values[c.name]) for c in columns)


def ref_schema_decode(columns, record):
    record_size = sum(ref_column_width(c) for c in columns)
    if len(record) != record_size:
        raise ValueError(
            f"record of {len(record)} bytes, schema needs {record_size}"
        )
    out = {}
    offset = 0
    for column in columns:
        width = ref_column_width(column)
        out[column.name] = ref_column_decode(column, record[offset : offset + width])
        offset += width
    return out


def ref_encode_field(columns, name, value):
    offset = 0
    for column in columns:
        if column.name == name:
            return offset, ref_column_encode(column, value)
        offset += ref_column_width(column)
    raise KeyError(name)
