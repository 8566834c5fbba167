"""TATP (Telecom Application Transaction Processing).

The telco benchmark: ~80 % reads / 20 % writes over a subscriber
database, with tiny single-record updates — the read-heavy mix the
paper cites when criticising IPL's doubled read load.

Standard mix (TATP specification):
  GET_SUBSCRIBER_DATA 35 %, GET_NEW_DESTINATION 10 %, GET_ACCESS_DATA
  35 %, UPDATE_SUBSCRIBER_DATA 2 %, UPDATE_LOCATION 14 %,
  INSERT_CALL_FORWARDING 2 %, DELETE_CALL_FORWARDING 2 %.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.engine.database import Database
from repro.engine.index import DuplicateKeyError
from repro.engine.schema import Column, ColumnType, Schema
from repro.storage.heap import FileFullError
from repro.workloads.base import DrawStream, Workload, draws, pages_for_rows

if TYPE_CHECKING:
    import numpy as np

SUBSCRIBER_SCHEMA = Schema(
    [
        Column("s_id", ColumnType.INT32),
        Column("bit_1", ColumnType.INT32),
        Column("hex_1", ColumnType.INT32),
        Column("byte2_1", ColumnType.INT32),
        Column("vlr_location", ColumnType.INT64),
        Column("msc_location", ColumnType.INT64),
        Column("sub_nbr", ColumnType.CHAR, 15),
        Column("s_pad", ColumnType.CHAR, 49),
    ]
)

ACCESS_INFO_SCHEMA = Schema(
    [
        Column("s_id", ColumnType.INT32),
        Column("ai_type", ColumnType.INT32),
        Column("data1", ColumnType.INT32),
        Column("data2", ColumnType.INT32),
        Column("data3", ColumnType.CHAR, 3),
        Column("data4", ColumnType.CHAR, 5),
    ]
)

SPECIAL_FACILITY_SCHEMA = Schema(
    [
        Column("s_id", ColumnType.INT32),
        Column("sf_type", ColumnType.INT32),
        Column("is_active", ColumnType.INT32),
        Column("error_cntrl", ColumnType.INT32),
        Column("data_a", ColumnType.INT32),
        Column("data_b", ColumnType.CHAR, 5),
    ]
)

CALL_FORWARDING_SCHEMA = Schema(
    [
        Column("s_id", ColumnType.INT32),
        Column("sf_type", ColumnType.INT32),
        Column("start_time", ColumnType.INT32),
        Column("end_time", ColumnType.INT32),
        Column("numberx", ColumnType.CHAR, 15),
    ]
)


class TatpWorkload(Workload):
    """TATP with configurable subscriber count.

    Args:
        subscribers: Population size (spec default is 100 000; scaled
            down by default).
    """

    name = "tatp"

    def __init__(self, subscribers: int = 4000) -> None:
        if subscribers < 10:
            raise ValueError("need at least 10 subscribers")
        self.subscribers = subscribers

    def estimate_pages(self, page_size: int) -> int:
        per_page = max(page_size // 100, 1)
        # subscriber + ~2.5 access-info + ~2.5 special-facility + CF.
        return (self.subscribers * 7) // per_page + 64

    def build(self, db: Database, rng: np.random.Generator) -> None:
        def pages_for(rows: int, record: int) -> int:
            return pages_for_rows(db, rows, record)

        sub = db.create_table(
            "subscriber",
            SUBSCRIBER_SCHEMA,
            pages_for(self.subscribers, SUBSCRIBER_SCHEMA.record_size),
            pk="s_id",
        )
        ai = db.create_table(
            "access_info",
            ACCESS_INFO_SCHEMA,
            pages_for(self.subscribers * 3, ACCESS_INFO_SCHEMA.record_size),
            pk=("s_id", "ai_type"),
        )
        sf = db.create_table(
            "special_facility",
            SPECIAL_FACILITY_SCHEMA,
            pages_for(self.subscribers * 3, SPECIAL_FACILITY_SCHEMA.record_size),
            pk=("s_id", "sf_type"),
        )
        db.create_table(
            "call_forwarding",
            CALL_FORWARDING_SCHEMA,
            pages_for(self.subscribers * 4, CALL_FORWARDING_SCHEMA.record_size),
            pk=("s_id", "sf_type", "start_time"),
        )

        integers = draws(rng).integers
        for s_id in range(self.subscribers):
            sub.insert(
                {
                    "s_id": s_id,
                    "bit_1": integers(0, 2),
                    "hex_1": integers(0, 16),
                    "byte2_1": integers(0, 256),
                    "vlr_location": integers(0, 2**31),
                    "msc_location": integers(0, 2**31),
                    "sub_nbr": f"{s_id:015d}",
                    "s_pad": "s",
                }
            )
            for ai_type in range(integers(1, 5)):
                ai.insert(
                    {
                        "s_id": s_id,
                        "ai_type": ai_type,
                        "data1": integers(0, 256),
                        "data2": integers(0, 256),
                        "data3": "abc",
                        "data4": "defgh",
                    }
                )
            for sf_type in range(integers(1, 5)):
                sf.insert(
                    {
                        "s_id": s_id,
                        "sf_type": sf_type,
                        "is_active": integers(0, 2),
                        "error_cntrl": 0,
                        "data_a": integers(0, 256),
                        "data_b": "xyzzy",
                    }
                )
        db.checkpoint()

    # ------------------------------------------------------------------ #
    # Transactions
    # ------------------------------------------------------------------ #

    def transaction(self, db: Database, rng: np.random.Generator) -> str:
        draw = draws(rng)
        roll = draw.random()
        if roll < 0.35:
            return self._get_subscriber_data(db, draw)
        if roll < 0.45:
            return self._get_new_destination(db, draw)
        if roll < 0.80:
            return self._get_access_data(db, draw)
        if roll < 0.82:
            return self._update_subscriber_data(db, draw)
        if roll < 0.96:
            return self._update_location(db, draw)
        if roll < 0.98:
            return self._insert_call_forwarding(db, draw)
        return self._delete_call_forwarding(db, draw)

    def _random_s_id(self, draw: DrawStream) -> int:
        return draw.integers(0, self.subscribers)

    def _get_subscriber_data(self, db: Database, draw: DrawStream) -> str:
        with db.begin("GET_SUBSCRIBER_DATA"):
            db.table("subscriber").get(self._random_s_id(draw))
        return "GET_SUBSCRIBER_DATA"

    def _get_new_destination(self, db: Database, draw: DrawStream) -> str:
        cf = db.table("call_forwarding")
        with db.begin("GET_NEW_DESTINATION"):
            key = (self._random_s_id(draw), draw.integers(0, 4), 0)
            if cf.pk_index is not None and key in cf.pk_index:
                cf.get(key)
        return "GET_NEW_DESTINATION"

    def _get_access_data(self, db: Database, draw: DrawStream) -> str:
        ai = db.table("access_info")
        with db.begin("GET_ACCESS_DATA"):
            key = (self._random_s_id(draw), draw.integers(0, 4))
            if ai.pk_index is not None and key in ai.pk_index:
                ai.get(key)
        return "GET_ACCESS_DATA"

    def _update_subscriber_data(self, db: Database, draw: DrawStream) -> str:
        sub = db.table("subscriber")
        sf = db.table("special_facility")
        with db.begin("UPDATE_SUBSCRIBER_DATA"):
            s_id = self._random_s_id(draw)
            sub.update_field(s_id, "bit_1", draw.integers(0, 2))
            key = (s_id, 0)
            if sf.pk_index is not None and key in sf.pk_index:
                sf.update_field(key, "data_a", draw.integers(0, 256))
        return "UPDATE_SUBSCRIBER_DATA"

    def _update_location(self, db: Database, draw: DrawStream) -> str:
        with db.begin("UPDATE_LOCATION"):
            db.table("subscriber").update_field(
                self._random_s_id(draw),
                "vlr_location",
                draw.integers(0, 2**31),
            )
        return "UPDATE_LOCATION"

    def _insert_call_forwarding(self, db: Database, draw: DrawStream) -> str:
        cf = db.table("call_forwarding")
        with db.begin("INSERT_CALL_FORWARDING"):
            row = {
                "s_id": self._random_s_id(draw),
                "sf_type": draw.integers(0, 4),
                "start_time": draw.integers(0, 24),
                "end_time": draw.integers(0, 24),
                "numberx": "555000111222333",
            }
            try:
                cf.insert(row)
            except (DuplicateKeyError, FileFullError):
                pass  # spec: failed inserts are allowed and counted
        return "INSERT_CALL_FORWARDING"

    def _delete_call_forwarding(self, db: Database, draw: DrawStream) -> str:
        cf = db.table("call_forwarding")
        with db.begin("DELETE_CALL_FORWARDING"):
            key = (
                self._random_s_id(draw),
                draw.integers(0, 4),
                draw.integers(0, 24),
            )
            if cf.pk_index is not None and key in cf.pk_index:
                cf.delete(key)
        return "DELETE_CALL_FORWARDING"
