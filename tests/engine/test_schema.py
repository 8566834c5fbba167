"""Schema encoding: fixed-width records and field spans."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine.schema import Column, ColumnType, Schema


def account_schema():
    return Schema(
        [
            Column("id", ColumnType.INT32),
            Column("balance", ColumnType.INT64),
            Column("name", ColumnType.CHAR, 16),
            Column("rate", ColumnType.FLOAT64),
        ]
    )


class TestColumn:
    def test_widths(self):
        assert Column("a", ColumnType.INT32).width == 4
        assert Column("a", ColumnType.INT64).width == 8
        assert Column("a", ColumnType.FLOAT64).width == 8
        assert Column("a", ColumnType.CHAR, 10).width == 10

    def test_char_requires_size(self):
        with pytest.raises(ValueError):
            Column("a", ColumnType.CHAR)

    def test_size_rejected_for_numeric(self):
        with pytest.raises(ValueError):
            Column("a", ColumnType.INT32, 10)

    def test_char_round_trip_and_padding(self):
        col = Column("a", ColumnType.CHAR, 8)
        raw = col.encode("hi")
        assert raw == b"hi      "
        assert col.decode(raw) == "hi"

    def test_char_overflow_rejected(self):
        with pytest.raises(ValueError):
            Column("a", ColumnType.CHAR, 4).encode("too long")

    def test_char_accepts_str_and_bytes_only(self):
        # bytes(5) is five NUL bytes: an int used to be stored as garbage
        # that decoded far from the cause.
        col = Column("name", ColumnType.CHAR, 8)
        assert col.encode(b"hi") == col.encode(bytearray(b"hi")) == b"hi      "
        for bad in (5, 2.5, None, ["h", "i"]):
            with pytest.raises(TypeError, match="'name'"):
                col.encode(bad)
        with pytest.raises(TypeError, match="'name'"):
            Schema([col]).encode({"name": 5})
        with pytest.raises(TypeError, match="'name'"):
            Schema([col]).encode_field("name", 5)

    @given(st.integers(min_value=-(2**31), max_value=2**31 - 1))
    def test_int32_round_trip(self, v):
        col = Column("a", ColumnType.INT32)
        assert col.decode(col.encode(v)) == v

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_float_round_trip(self, v):
        col = Column("a", ColumnType.FLOAT64)
        assert col.decode(col.encode(v)) == v


class TestSchema:
    def test_record_size(self):
        assert account_schema().record_size == 4 + 8 + 16 + 8

    def test_field_span(self):
        s = account_schema()
        assert s.field_span("id") == (0, 4)
        assert s.field_span("balance") == (4, 8)
        assert s.field_span("name") == (12, 16)
        assert s.field_span("rate") == (28, 8)

    def test_encode_decode_round_trip(self):
        s = account_schema()
        row = {"id": 42, "balance": -5, "name": "alice", "rate": 1.5}
        assert s.decode(s.encode(row)) == row

    def test_missing_column_rejected(self):
        with pytest.raises(ValueError):
            account_schema().encode({"id": 1})

    def test_wrong_record_size_rejected(self):
        with pytest.raises(ValueError):
            account_schema().decode(b"\x00" * 3)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Schema([Column("a", ColumnType.INT32), Column("a", ColumnType.INT32)])

    def test_empty_schema_rejected(self):
        with pytest.raises(ValueError):
            Schema([])

    def test_encode_field_matches_full_encoding(self):
        s = account_schema()
        row = {"id": 1, "balance": 999, "name": "bob", "rate": 0.25}
        full = s.encode(row)
        offset, data = s.encode_field("balance", 999)
        assert full[offset : offset + len(data)] == data

    def test_small_balance_change_touches_few_bytes(self):
        # The premise of IPA: an OLTP balance update changes 1-2 bytes.
        s = account_schema()
        _off, before = s.encode_field("balance", 1_000_000)
        _off, after = s.encode_field("balance", 1_000_010)
        changed = sum(1 for a, b in zip(before, after) if a != b)
        assert changed <= 2
