"""YCSB core workloads (A, B, C, F) — a cloud-serving style generator.

Not evaluated in the paper, but the de-facto standard for storage-engine
benchmarking; included so downstream users can stress IPA with the
read/update mixes they already reason in:

* **A** — update heavy: 50 % reads / 50 % updates;
* **B** — read mostly: 95 % reads / 5 % updates;
* **C** — read only;
* **F** — read-modify-write: 50 % reads / 50 % RMW.

Records are the classic "usertable": one integer key plus ``field_count``
fixed-width fields; an update rewrites ONE randomly chosen field, which
on fixed offsets is exactly the small in-place update IPA targets.
Access is Zipfian (the YCSB default).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.engine.database import Database
from repro.engine.schema import Column, ColumnType, Schema
from repro.workloads.base import Workload, draws, pages_for_rows

if TYPE_CHECKING:
    import numpy as np

MIXES = {
    "a": {"read": 0.50, "update": 0.50, "rmw": 0.0},
    "b": {"read": 0.95, "update": 0.05, "rmw": 0.0},
    "c": {"read": 1.00, "update": 0.00, "rmw": 0.0},
    "f": {"read": 0.50, "update": 0.00, "rmw": 0.50},
}


class YcsbWorkload(Workload):
    """YCSB usertable with a configurable core mix.

    Args:
        records: Usertable size.
        mix: One of "a", "b", "c", "f".
        field_count: Fields per record.
        field_size: Bytes per field.
        zipfian: Use Zipfian key popularity (YCSB default) vs uniform.
    """

    name = "ycsb"

    def __init__(
        self,
        records: int = 2000,
        mix: str = "a",
        field_count: int = 10,
        field_size: int = 10,
        zipfian: bool = True,
    ) -> None:
        if records < 10:
            raise ValueError("need at least 10 records")
        if mix not in MIXES:
            raise ValueError(f"mix must be one of {sorted(MIXES)}")
        if field_count < 1:
            raise ValueError(f"field_count must be >= 1, got {field_count}")
        self.records = records
        self.mix = mix
        self.field_count = field_count
        self.field_size = field_size
        self.zipfian = zipfian
        self.name = f"ycsb-{mix}"
        self._fields = [f"field{i}" for i in range(field_count)]
        self._schema = Schema(
            [Column("key", ColumnType.INT64)]
            + [Column(name, ColumnType.CHAR, field_size) for name in self._fields]
        )

    def estimate_pages(self, page_size: int) -> int:
        per_page = max(page_size // (self._schema.record_size + 8), 1)
        return self.records // per_page + 16

    def build(self, db: Database, rng: np.random.Generator) -> None:
        table = db.create_table(
            "usertable",
            self._schema,
            pages_for_rows(db, self.records, self._schema.record_size),
            pk="key",
        )
        # A row's fields are slices of one draw: the stream carries a
        # 32-bit half between calls, as numpy's does, so one draw of all
        # the letters spells what one draw per field would.
        letters, size = draws(rng).letters, self.field_size
        slices = [slice(i * size, (i + 1) * size) for i in range(self.field_count)]
        insert, fields = table.insert, self._fields
        for key in range(self.records):
            text = letters(self.field_count * size)
            insert(dict(zip(fields, map(text.__getitem__, slices)), key=key))
        db.checkpoint()

    def transaction(self, db: Database, rng: np.random.Generator) -> str:
        probabilities = MIXES[self.mix]
        draw = draws(rng)
        roll = draw.random()
        table = db.table("usertable")
        if self.zipfian:
            key = draw.zipf(self.records)
        else:
            key = draw.integers(0, self.records)
        if roll < probabilities["read"]:
            with db.begin("read"):
                table.get(key)
            return "read"
        if roll < probabilities["read"] + probabilities["update"]:
            with db.begin("update"):
                field = self._fields[draw.integers(0, self.field_count)]
                table.update_field(key, field, draw.letters(self.field_size))
            return "update"
        with db.begin("rmw"):
            row = table.get(key)
            field = self._fields[draw.integers(0, self.field_count)]
            current = row[field]
            mutated = (current[:-1] + "z") if current else "z"
            table.update_field(key, field, mutated[: self.field_size])
        return "rmw"


def _value(rng: np.random.Generator, size: int) -> str:
    """``size`` random lowercase letters, as one ``rng.integers(0, 26,
    size)`` draw spells them."""
    return draws(rng).letters(size)
