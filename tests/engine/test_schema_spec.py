"""``Schema``, ``Column`` and ``Row`` against the spec model in
``tests.reference.schema``: same bytes, same values, same errors."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Row
from repro.engine.schema import Column, ColumnType, Schema
from tests.reference import outcome
from tests.reference.schema import (
    ref_column_decode,
    ref_column_encode,
    ref_column_width,
    ref_encode_field,
    ref_schema_decode,
    ref_schema_encode,
)

_ascii = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=12
)
#: CHAR values a row must give back stripped: empty, or ending in spaces.
_padded = st.one_of(
    st.just(""),
    st.builds(lambda s, n: s + " " * n, _ascii, st.integers(1, 3)),
    _ascii,
)


@st.composite
def _schema_and_row(draw, text=_ascii):
    """(columns, row): CHAR values may overflow their column by a little."""
    kinds = draw(
        st.lists(st.sampled_from(list(ColumnType)), min_size=1, max_size=8)
    )
    columns, row = [], {}
    for i, kind in enumerate(kinds):
        name = f"c{i}"
        if kind is ColumnType.CHAR:
            size = draw(st.integers(min_value=1, max_value=10))
            columns.append(Column(name, kind, size))
            value = draw(text)
            row[name] = value.encode("ascii") if draw(st.booleans()) else value
        elif kind is ColumnType.FLOAT64:
            columns.append(Column(name, kind))
            row[name] = draw(st.floats(allow_nan=False))
        else:
            bits = 31 if kind is ColumnType.INT32 else 63
            columns.append(Column(name, kind))
            row[name] = draw(
                st.integers(min_value=-(2**bits), max_value=2**bits - 1)
            )
    return columns, row


class TestSchemaSpec:
    @given(case=_schema_and_row())
    @settings(max_examples=200, deadline=None)
    def test_record_codec(self, case):
        columns, row = case
        schema = Schema(columns)
        assert schema.record_size == sum(ref_column_width(c) for c in columns)
        assert [c.width for c in columns] == [ref_column_width(c) for c in columns]
        expected = outcome(ref_schema_encode, columns, row)
        assert outcome(schema.encode, row) == expected
        if expected[0] != "ok":
            assert expected[1] is ValueError  # a CHAR value overflowed
            return
        record = expected[1]
        assert schema.decode(record) == ref_schema_decode(columns, record)
        for column in columns:
            name = column.name
            assert schema.encode_field(name, row[name]) == ref_encode_field(
                columns, name, row[name]
            )
            offset, width = schema.field_span(name)
            assert column.decode(record[offset : offset + width]) == (
                ref_column_decode(column, record[offset : offset + width])
            )

    def test_char_is_space_padded_not_nul_padded(self):
        schema = Schema([Column("k", ColumnType.INT32), Column("c", ColumnType.CHAR, 6)])
        assert schema.encode({"k": 1, "c": "ab"}) == b"\x01\x00\x00\x00ab    "
        assert schema.decode(b"\x01\x00\x00\x00ab    ") == {"k": 1, "c": "ab"}

    def test_char_overflow_raises_instead_of_truncating(self):
        schema = Schema([Column("c", ColumnType.CHAR, 3)])
        with pytest.raises(ValueError, match="exceeds CHAR"):
            schema.encode({"c": "abcd"})
        with pytest.raises(ValueError, match="exceeds CHAR"):
            schema.encode_field("c", b"abcd")

    def test_missing_column_and_wrong_size(self):
        columns = [Column("a", ColumnType.INT64), Column("b", ColumnType.CHAR, 2)]
        schema = Schema(columns)
        assert outcome(schema.encode, {"b": "x"}) == outcome(
            ref_schema_encode, columns, {"b": "x"}
        )
        assert outcome(schema.decode, b"short") == outcome(
            ref_schema_decode, columns, b"short"
        )

    @pytest.mark.parametrize("value", [b"\xff\x01", bytearray(b"a\x80"), "café"])
    def test_char_refuses_what_it_could_not_read_back(self, value):
        # Non-ASCII bytes used to be stored, and every later read of the
        # row raised UnicodeDecodeError far from the cause; non-ASCII text
        # raised a bare UnicodeEncodeError that named no column.
        columns = [Column("k", ColumnType.INT32), Column("c", ColumnType.CHAR, 4)]
        schema = Schema(columns)
        with pytest.raises(ValueError, match="CHAR column 'c' takes ASCII only"):
            schema.encode({"k": 1, "c": value})
        with pytest.raises(ValueError, match="CHAR column 'c' takes ASCII only"):
            schema.encode_field("c", value)
        assert outcome(columns[1].encode, value) == outcome(
            ref_column_encode, columns[1], value
        )
        assert outcome(schema.encode, {"k": 1, "c": value}) == outcome(
            ref_schema_encode, columns, {"k": 1, "c": value}
        )


#: What a CHAR value may be: text that fits, exactly fills or overflows
#: its column by one byte, the same as bytes, non-ASCII text or bytes, and
#: values that are no text at all.
def _char_values(size):
    fits = st.text(alphabet="ab %", max_size=size)
    return st.one_of(
        fits,
        fits,
        st.just("x" * size),
        st.just("x" * (size + 1)),
        fits.map(lambda text: text.encode("ascii")),
        fits.map(lambda text: bytearray(text.encode("ascii"))),
        st.just("é" * min(size, 2)),
        st.just(b"\x80"),
        st.sampled_from([7, None, 1.5]),
    )


@st.composite
def _runs_and_row(draw):
    """(columns, row): CHAR columns leading, trailing and between INT and
    FLOAT ones, in runs of one to four; now and then a column missing."""
    kinds = draw(
        st.lists(
            st.sampled_from(
                [ColumnType.CHAR] * 3
                + [ColumnType.INT32, ColumnType.INT64, ColumnType.FLOAT64]
            ),
            min_size=1,
            max_size=10,
        )
    )
    columns, row = [], {}
    for i, kind in enumerate(kinds):
        name = f"c{i}"
        if kind is ColumnType.CHAR:
            size = draw(st.integers(min_value=1, max_value=6))
            columns.append(Column(name, kind, size))
            row[name] = draw(_char_values(size))
        else:
            columns.append(Column(name, kind))
            row[name] = draw(st.integers(min_value=-(2**31), max_value=2**31 - 1))
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        del row[draw(st.sampled_from(sorted(row)))]
    return columns, row


def _encoded(fn, *args):
    """``outcome``, with the ``TypeError`` a CHAR column raises for a value
    that is no text."""
    try:
        return outcome(fn, *args)
    except TypeError as error:
        return ("raised", TypeError, str(error))


class TestRunEncoder:
    """``Schema.encode`` packs each run of adjacent CHAR columns with one
    format, and falls back to the column's own encode for a value that
    fails its checks: the same bytes and the same first error as the
    spec's column-by-column encode."""

    @given(case=_runs_and_row())
    @settings(max_examples=400, deadline=None)
    def test_same_bytes_and_errors_as_the_spec(self, case):
        columns, row = case
        assert _encoded(Schema(columns).encode, row) == _encoded(
            ref_schema_encode, columns, row
        )

    @pytest.mark.parametrize(
        "value, error",
        [
            (7, (TypeError, "CHAR column 'b' takes str or bytes, got int")),
            (b"xyz", None),
            ("é", (ValueError, "CHAR column 'b' takes ASCII only, got 'é'")),
            ("abcd", (ValueError, "value of 4 bytes exceeds CHAR(3) column 'b'")),
            (b"abcd", (ValueError, "value of 4 bytes exceeds CHAR(3) column 'b'")),
        ],
        ids=["not-text", "bytes", "non-ascii", "one-too-long", "bytes-too-long"],
    )
    @pytest.mark.parametrize("layout", ["leading", "trailing", "between"])
    def test_each_refusal_names_its_column(self, value, error, layout):
        char_run = [
            Column("a", ColumnType.CHAR, 2),
            Column("b", ColumnType.CHAR, 3),
            Column("c", ColumnType.CHAR, 1),
        ]
        number = [Column("n", ColumnType.INT64), Column("f", ColumnType.FLOAT64)]
        columns = {
            "leading": char_run + number,
            "trailing": number + char_run,
            "between": number[:1] + char_run + number[1:],
        }[layout]
        # The later CHAR column is wrong as well: the first one raises.
        row = {"a": "xy", "b": value, "c": 5, "n": 3, "f": 0.5}
        expected = _encoded(ref_schema_encode, columns, row)
        assert _encoded(Schema(columns).encode, row) == expected
        if error is not None:
            assert expected == ("raised", *error)
        else:
            assert expected == (
                "raised", TypeError, "CHAR column 'c' takes str or bytes, got int"
            )
        del row["n"]
        assert _encoded(Schema(columns).encode, row) == (
            "raised", ValueError, "missing columns: ['n']"
        )


class TestRowSpec:
    @given(case=_schema_and_row(text=_padded))
    @settings(max_examples=200, deadline=None)
    def test_row_reads_like_the_spec_dict(self, case):
        columns, row = case
        for column in columns:  # every value fits: this test reads rows
            if column.type is ColumnType.CHAR:
                row[column.name] = row[column.name][: column.size]
        schema = Schema(columns)
        record = ref_schema_encode(columns, row)
        ref = ref_schema_decode(columns, record)
        decoded = schema.decode(record)
        assert isinstance(decoded, Row)
        assert dict(decoded) == ref
        assert decoded == ref
        assert ref == decoded
        assert list(decoded) == [c.name for c in columns]
        assert len(decoded) == len(ref)
        for name, value in ref.items():
            assert decoded[name] == value
            assert type(decoded[name]) is type(value)
            assert decoded.get(name) == value
            assert name in decoded
        assert list(decoded.items()) == list(ref.items())
        assert list(decoded.values()) == list(ref.values())
        assert repr(decoded) == repr(ref)
        with pytest.raises(KeyError):
            decoded["missing"]
        assert "missing" not in decoded
        assert decoded.get("missing") is None
        with pytest.raises(TypeError):
            decoded[columns[0].name] = 0
        for bad in (record[:-1], record + b" "):
            assert outcome(schema.decode, bad) == outcome(
                ref_schema_decode, columns, bad
            )

    def test_a_forged_char_raises_only_when_read(self):
        schema = Schema([Column("k", ColumnType.INT32), Column("c", ColumnType.CHAR, 4)])
        row = schema.decode(b"\x07\x00\x00\x00\xff\x01  ")
        assert row["k"] == 7
        with pytest.raises(UnicodeDecodeError):
            row["c"]
        with pytest.raises(UnicodeDecodeError):
            dict(row)
