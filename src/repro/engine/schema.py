"""Typed, fixed-size record schemas.

Fixed-size records keep every column at a fixed page offset, so a field
update touches exactly the column's bytes — the "small in-place updates"
whose delta-record transformation is the paper's subject.  (An INT64
balance update changes at most 8 bytes; with typical value locality it
changes 1-3, which is why the [2x4] scheme of Table 1 suffices.)
"""

from __future__ import annotations

import enum
import struct
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from operator import itemgetter, le
from typing import Any


class ColumnType(enum.Enum):
    """Supported column types (all fixed-width)."""

    INT32 = "int32"
    INT64 = "int64"
    FLOAT64 = "float64"
    CHAR = "char"  # fixed-width, space-padded


_STRUCT = {
    ColumnType.INT32: struct.Struct("<i"),
    ColumnType.INT64: struct.Struct("<q"),
    ColumnType.FLOAT64: struct.Struct("<d"),
}


@dataclass(frozen=True)
class Column:
    """One column: name, type, and width for CHAR columns."""

    name: str
    type: ColumnType
    size: int = 0  # CHAR width; ignored otherwise

    def __post_init__(self) -> None:
        if self.type is ColumnType.CHAR:
            if self.size < 1:
                raise ValueError(f"CHAR column '{self.name}' needs size >= 1")
        elif self.size not in (0, self.width):
            raise ValueError(f"size is only meaningful for CHAR ('{self.name}')")

    # Resolved once per (frozen) column rather than on every field access.
    @cached_property
    def _codec(self) -> struct.Struct | None:
        """The value codec; None for CHAR, which is padded bytes."""
        return _STRUCT.get(self.type)

    @cached_property
    def width(self) -> int:
        """Bytes this column occupies in the record."""
        codec = self._codec
        return self.size if codec is None else codec.size

    def encode(self, value: Any) -> bytes:
        """Serialize one value to the column's fixed width."""
        codec = self._codec
        if codec is not None:
            return codec.pack(value)
        if not isinstance(value, (str, bytes, bytearray)):
            raise TypeError(
                f"CHAR column '{self.name}' takes str or bytes, "
                f"got {type(value).__name__}"
            )
        if not value.isascii():
            # Stored, these bytes could never be decoded again.
            raise ValueError(
                f"CHAR column '{self.name}' takes ASCII only, got {value!r}"
            )
        raw = value.encode("ascii") if isinstance(value, str) else bytes(value)
        if len(raw) > self.size:
            raise ValueError(
                f"value of {len(raw)} bytes exceeds CHAR({self.size}) "
                f"column '{self.name}'"
            )
        return raw.ljust(self.size, b" ")

    def decode(self, raw: bytes) -> Any:
        """Deserialize the column's bytes."""
        codec = self._codec
        if codec is not None:
            return codec.unpack(raw)[0]
        return raw.rstrip(b" ").decode("ascii")


class Row(Mapping[str, Any]):
    """One decoded record: a read-only mapping of column name to value.

    A row holds the record's single ``struct`` unpack.  INT and FLOAT
    values come straight from it; a CHAR value is space-stripped and
    ASCII-decoded each time its column is read, so a read that uses one
    column, or none, pays for no other.  ``dict(row)`` is a mutable copy.

    A row of any record written through :meth:`Schema.encode` or
    :meth:`Schema.encode_field` never raises on access (CHAR columns take
    ASCII only).  A record forged below the schema, with non-ASCII bytes
    in a CHAR column, raises ``UnicodeDecodeError`` (a ``ValueError``)
    when that column is read.
    """

    __slots__ = ("_fields", "_positions")

    def __init__(
        self, fields: tuple[Any, ...], positions: dict[str, tuple[int, bool]]
    ) -> None:
        self._fields = fields
        self._positions = positions  # name -> (field index, is CHAR)

    def __getitem__(self, name: str) -> Any:
        index, is_char = self._positions[name]
        value = self._fields[index]
        return value.rstrip(b" ").decode("ascii") if is_char else value

    def __contains__(self, name: object) -> bool:
        return name in self._positions

    def __iter__(self) -> Iterator[str]:
        return iter(self._positions)

    def __len__(self) -> int:
        return len(self._positions)

    def __repr__(self) -> str:
        return repr(dict(self))


class Schema:
    """An ordered set of columns with precomputed offsets."""

    def __init__(self, columns: Iterable[Column]) -> None:
        self.columns = list(columns)
        if not self.columns:
            raise ValueError("schema needs at least one column")
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate column names in {names}")
        self._names = tuple(names)
        # Every value of a row as one tuple, in column order.
        self._fields_of = (
            itemgetter(*names)
            if len(names) > 1
            else lambda values: (values[names[0]],)
        )
        self._offsets: dict[str, tuple[int, Column]] = {}
        offset = 0
        for column in self.columns:
            self._offsets[column.name] = (offset, column)
            offset += column.width
        self.record_size = offset
        # The decoding codec, one field per column.  CHAR columns are raw
        # bytes to it and to the encoding one below ("Ns" would pad with
        # NUL and silently truncate, so they are space-padded and
        # length-checked before packing, and stripped by the Row when
        # read).
        self._record = struct.Struct(
            "<"
            + "".join(
                f"{c.size}s" if c._codec is None else c._codec.format[1:]
                for c in self.columns
            )
        )
        # Encoding packs each run of adjacent CHAR columns as one "Ns"
        # field: one join finds a value that is not text, one isascii()
        # a non-ASCII one, and one "%-Ns..." format pads the run.  A run
        # failing a check is encoded column by column (Column.encode),
        # which raises exactly what it always did.
        runs = []
        formats = []
        start = 0
        for is_char, group in groupby(self.columns, lambda c: c._codec is None):
            run = tuple(group)
            stop = start + len(run)
            if is_char:
                widths = tuple(c.size for c in run)
                runs.append(
                    (start, stop, "".join(f"%-{w}s" for w in widths), widths, run)
                )
                formats.append(f"{sum(widths)}s")
            else:
                formats += [c._codec.format[1:] for c in run]
            start = stop
        self._char_runs = tuple(runs)
        self._packer = struct.Struct("<" + "".join(formats))
        self._positions = {
            c.name: (i, c._codec is None) for i, c in enumerate(self.columns)
        }

    def field_span(self, name: str) -> tuple[int, int]:
        """(offset, width) of a column within the record."""
        offset, column = self._offsets[name]
        return offset, column.width

    def column(self, name: str) -> Column:
        """Column object by name."""
        return self._offsets[name][1]

    def encode(self, values: Mapping[str, Any]) -> bytes:
        """Serialize a full record from a column-name mapping."""
        try:
            fields = self._fields_of(values)
        except KeyError:
            missing = [name for name in self._names if name not in values]
            raise ValueError(f"missing columns: {missing}") from None
        packed: tuple = ()
        done = 0
        for start, stop, pad, widths, columns in self._char_runs:
            chars = fields[start:stop]
            try:
                fits = "".join(chars).isascii()
            except TypeError:  # a value that is not text
                fits = False
            if fits and all(map(le, map(len, chars), widths)):
                text = (pad % chars).encode("ascii")
            else:
                text = b"".join(map(Column.encode, columns, chars))
            packed += fields[done:start] + (text,)
            done = stop
        return self._packer.pack(*packed, *fields[done:])

    def decode(self, record: bytes) -> Row:
        """Deserialize a full record into a read-only :class:`Row`."""
        if len(record) != self.record_size:
            raise ValueError(
                f"record of {len(record)} bytes, schema needs {self.record_size}"
            )
        return Row(self._record.unpack(record), self._positions)

    def encode_field(self, name: str, value: Any) -> tuple[int, bytes]:
        """(offset, bytes) for an in-place single-field update."""
        offset, column = self._offsets[name]
        return offset, column.encode(value)
