"""TPC-C (order entry), simplified but update-faithful.

The five standard transaction types with the 45/43/4/4/4 mix.  The
queries are trimmed (no join ordering to speak of here) but the *write
pattern* — the thing that matters for IPA — follows the spec:

* NewOrder: update ``d_next_o_id`` (small), update per-item stock
  quantity/ytd/order_cnt (small), insert order + order lines.
* Payment: update ``w_ytd``, ``d_ytd``, ``c_balance``/``c_ytd_payment``
  (all small single-field updates), insert history.
* OrderStatus: read-only.
* Delivery: update order carrier id, customer balance (small).
* StockLevel: read-only scan of recent stock records.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.engine.database import Database
from repro.engine.schema import Column, ColumnType, Schema
from repro.storage.heap import FileFullError
from repro.workloads.base import DrawStream, Workload, draws, pages_for_rows

if TYPE_CHECKING:
    import numpy as np

WAREHOUSE_SCHEMA = Schema(
    [
        Column("w_id", ColumnType.INT32),
        Column("w_ytd", ColumnType.INT64),
        Column("w_tax", ColumnType.FLOAT64),
        Column("w_pad", ColumnType.CHAR, 70),
    ]
)

DISTRICT_SCHEMA = Schema(
    [
        Column("d_w_id", ColumnType.INT32),
        Column("d_id", ColumnType.INT32),
        Column("d_ytd", ColumnType.INT64),
        Column("d_next_o_id", ColumnType.INT32),
        Column("d_tax", ColumnType.FLOAT64),
        Column("d_pad", ColumnType.CHAR, 62),
    ]
)

CUSTOMER_SCHEMA = Schema(
    [
        Column("c_w_id", ColumnType.INT32),
        Column("c_d_id", ColumnType.INT32),
        Column("c_id", ColumnType.INT32),
        Column("c_balance", ColumnType.INT64),
        Column("c_ytd_payment", ColumnType.INT64),
        Column("c_payment_cnt", ColumnType.INT32),
        Column("c_delivery_cnt", ColumnType.INT32),
        Column("c_data", ColumnType.CHAR, 100),
    ]
)

STOCK_SCHEMA = Schema(
    [
        Column("s_w_id", ColumnType.INT32),
        Column("s_i_id", ColumnType.INT32),
        Column("s_quantity", ColumnType.INT32),
        Column("s_ytd", ColumnType.INT64),
        Column("s_order_cnt", ColumnType.INT32),
        Column("s_pad", ColumnType.CHAR, 50),
    ]
)

ORDER_SCHEMA = Schema(
    [
        Column("o_w_id", ColumnType.INT32),
        Column("o_d_id", ColumnType.INT32),
        Column("o_id", ColumnType.INT32),
        Column("o_c_id", ColumnType.INT32),
        Column("o_carrier_id", ColumnType.INT32),
        Column("o_ol_cnt", ColumnType.INT32),
    ]
)

ORDER_LINE_SCHEMA = Schema(
    [
        Column("ol_w_id", ColumnType.INT32),
        Column("ol_d_id", ColumnType.INT32),
        Column("ol_o_id", ColumnType.INT32),
        Column("ol_number", ColumnType.INT32),
        Column("ol_i_id", ColumnType.INT32),
        Column("ol_quantity", ColumnType.INT32),
        Column("ol_amount", ColumnType.INT64),
    ]
)

HISTORY_SCHEMA = Schema(
    [
        Column("h_id", ColumnType.INT64),
        Column("h_c_w_id", ColumnType.INT32),
        Column("h_c_d_id", ColumnType.INT32),
        Column("h_c_id", ColumnType.INT32),
        Column("h_amount", ColumnType.INT64),
    ]
)

DISTRICTS_PER_WAREHOUSE = 10
CUSTOMERS_PER_DISTRICT = 30  # spec: 3000, scaled down
ITEMS = 1000  # spec: 100 000, scaled down


class TpccWorkload(Workload):
    """TPC-C with configurable warehouse count."""

    name = "tpcc"

    def __init__(
        self,
        warehouses: int = 1,
        customers_per_district: int = CUSTOMERS_PER_DISTRICT,
        items: int = ITEMS,
        order_pages: int = 300,
    ) -> None:
        if warehouses < 1:
            raise ValueError("warehouses must be >= 1")
        self.warehouses = warehouses
        self.customers_per_district = customers_per_district
        self.items = items
        self.order_pages = order_pages
        self._next_order: dict[tuple[int, int], int] = {}
        self._oldest_undelivered: dict[tuple[int, int], int] = {}
        self._next_history_id = 0

    def estimate_pages(self, page_size: int) -> int:
        per_page = max(page_size // 100, 1)
        rows = (
            self.warehouses
            * (
                1
                + DISTRICTS_PER_WAREHOUSE * (1 + self.customers_per_district)
                + self.items
            )
        )
        return rows // per_page + self.order_pages * 3 + 64

    def build(self, db: Database, rng: np.random.Generator) -> None:
        def pages_for(rows: int, record: int) -> int:
            return pages_for_rows(db, rows, record)

        w = db.create_table(
            "warehouse",
            WAREHOUSE_SCHEMA,
            pages_for(self.warehouses, WAREHOUSE_SCHEMA.record_size),
            pk="w_id",
        )
        d = db.create_table(
            "district",
            DISTRICT_SCHEMA,
            pages_for(
                self.warehouses * DISTRICTS_PER_WAREHOUSE,
                DISTRICT_SCHEMA.record_size,
            ),
            pk=("d_w_id", "d_id"),
        )
        c = db.create_table(
            "customer",
            CUSTOMER_SCHEMA,
            pages_for(
                self.warehouses
                * DISTRICTS_PER_WAREHOUSE
                * self.customers_per_district,
                CUSTOMER_SCHEMA.record_size,
            ),
            pk=("c_w_id", "c_d_id", "c_id"),
        )
        s = db.create_table(
            "stock",
            STOCK_SCHEMA,
            pages_for(self.warehouses * self.items, STOCK_SCHEMA.record_size),
            pk=("s_w_id", "s_i_id"),
        )
        db.create_table(
            "orders", ORDER_SCHEMA, self.order_pages, pk=("o_w_id", "o_d_id", "o_id")
        )
        db.create_table(
            "order_line",
            ORDER_LINE_SCHEMA,
            self.order_pages * 2,
            pk=("ol_w_id", "ol_d_id", "ol_o_id", "ol_number"),
        )
        db.create_table("history", HISTORY_SCHEMA, self.order_pages, pk="h_id")

        integers = draws(rng).integers
        for w_id in range(self.warehouses):
            w.insert({"w_id": w_id, "w_ytd": 0, "w_tax": 0.05, "w_pad": "w"})
            for d_id in range(DISTRICTS_PER_WAREHOUSE):
                d.insert(
                    {
                        "d_w_id": w_id,
                        "d_id": d_id,
                        "d_ytd": 0,
                        "d_next_o_id": 0,
                        "d_tax": 0.05,
                        "d_pad": "d",
                    }
                )
                self._next_order[(w_id, d_id)] = 0
                self._oldest_undelivered[(w_id, d_id)] = 0
                for c_id in range(self.customers_per_district):
                    c.insert(
                        {
                            "c_w_id": w_id,
                            "c_d_id": d_id,
                            "c_id": c_id,
                            "c_balance": -1000,
                            "c_ytd_payment": 1000,
                            "c_payment_cnt": 1,
                            "c_delivery_cnt": 0,
                            "c_data": "customer-data",
                        }
                    )
            for i_id in range(self.items):
                s.insert(
                    {
                        "s_w_id": w_id,
                        "s_i_id": i_id,
                        "s_quantity": integers(10, 101),
                        "s_ytd": 0,
                        "s_order_cnt": 0,
                        "s_pad": "s",
                    }
                )
        self._next_history_id = 0
        db.checkpoint()

    # ------------------------------------------------------------------ #
    # Transactions
    # ------------------------------------------------------------------ #

    def transaction(self, db: Database, rng: np.random.Generator) -> str:
        draw = draws(rng)
        roll = draw.random()
        if roll < 0.45:
            return self._new_order(db, draw)
        if roll < 0.88:
            return self._payment(db, draw)
        if roll < 0.92:
            return self._order_status(db, draw)
        if roll < 0.96:
            return self._delivery(db, draw)
        return self._stock_level(db, draw)

    def _pick_wd(self, draw: DrawStream) -> tuple[int, int]:
        return (
            draw.integers(0, self.warehouses),
            draw.integers(0, DISTRICTS_PER_WAREHOUSE),
        )

    def _new_order(self, db: Database, draw: DrawStream) -> str:
        w_id, d_id = self._pick_wd(draw)
        c_id = draw.nurand(255, 0, self.customers_per_district - 1)
        n_lines = draw.integers(5, 16)
        district = db.table("district")
        stock = db.table("stock")
        orders = db.table("orders")
        lines = db.table("order_line")
        with db.begin("NewOrder"):
            o_id = self._next_order[(w_id, d_id)]
            self._next_order[(w_id, d_id)] = o_id + 1
            district.update_field((w_id, d_id), "d_next_o_id", o_id + 1)
            try:
                orders.insert(
                    {
                        "o_w_id": w_id,
                        "o_d_id": d_id,
                        "o_id": o_id,
                        "o_c_id": c_id,
                        "o_carrier_id": -1,
                        "o_ol_cnt": n_lines,
                    }
                )
                for number in range(n_lines):
                    i_id = draw.nurand(8191, 0, self.items - 1)
                    row = stock.get((w_id, i_id))
                    quantity = row["s_quantity"]
                    new_quantity = (
                        quantity - 5 if quantity >= 15 else quantity + 91 - 5
                    )
                    stock.update_fields(
                        (w_id, i_id),
                        {
                            "s_quantity": new_quantity,
                            "s_ytd": row["s_ytd"] + 5,
                            "s_order_cnt": row["s_order_cnt"] + 1,
                        },
                    )
                    lines.insert(
                        {
                            "ol_w_id": w_id,
                            "ol_d_id": d_id,
                            "ol_o_id": o_id,
                            "ol_number": number,
                            "ol_i_id": i_id,
                            "ol_quantity": 5,
                            "ol_amount": draw.integers(1, 10000),
                        }
                    )
            except FileFullError:
                pass  # order file exhausted: treat as rolled-back order
        return "NewOrder"

    def _payment(self, db: Database, draw: DrawStream) -> str:
        w_id, d_id = self._pick_wd(draw)
        c_id = draw.nurand(255, 0, self.customers_per_district - 1)
        amount = draw.integers(100, 500000)
        warehouse = db.table("warehouse")
        district = db.table("district")
        customer = db.table("customer")
        history = db.table("history")
        with db.begin("Payment"):
            warehouse.update_field(
                w_id, "w_ytd", warehouse.get(w_id)["w_ytd"] + amount
            )
            district.update_field(
                (w_id, d_id), "d_ytd", district.get((w_id, d_id))["d_ytd"] + amount
            )
            row = customer.get((w_id, d_id, c_id))
            customer.update_fields(
                (w_id, d_id, c_id),
                {
                    "c_balance": row["c_balance"] - amount,
                    "c_ytd_payment": row["c_ytd_payment"] + amount,
                    "c_payment_cnt": row["c_payment_cnt"] + 1,
                },
            )
            try:
                history.insert(
                    {
                        "h_id": self._next_history_id,
                        "h_c_w_id": w_id,
                        "h_c_d_id": d_id,
                        "h_c_id": c_id,
                        "h_amount": amount,
                    }
                )
                self._next_history_id += 1
            except FileFullError:
                pass
        return "Payment"

    def _order_status(self, db: Database, draw: DrawStream) -> str:
        w_id, d_id = self._pick_wd(draw)
        c_id = draw.nurand(255, 0, self.customers_per_district - 1)
        customer = db.table("customer")
        orders = db.table("orders")
        with db.begin("OrderStatus"):
            customer.get((w_id, d_id, c_id))
            last = self._next_order[(w_id, d_id)] - 1
            if last >= 0 and orders.pk_index is not None:
                key = (w_id, d_id, last)
                if key in orders.pk_index:
                    orders.get(key)
        return "OrderStatus"

    def _delivery(self, db: Database, draw: DrawStream) -> str:
        w_id = draw.integers(0, self.warehouses)
        orders = db.table("orders")
        customer = db.table("customer")
        with db.begin("Delivery"):
            for d_id in range(DISTRICTS_PER_WAREHOUSE):
                o_id = self._oldest_undelivered[(w_id, d_id)]
                key = (w_id, d_id, o_id)
                if orders.pk_index is None or key not in orders.pk_index:
                    continue
                order = orders.get(key)
                orders.update_field(key, "o_carrier_id", draw.integers(1, 11))
                c_key = (w_id, d_id, order["o_c_id"])
                row = customer.get(c_key)
                customer.update_fields(
                    c_key,
                    {
                        "c_balance": row["c_balance"] + 100,
                        "c_delivery_cnt": row["c_delivery_cnt"] + 1,
                    },
                )
                self._oldest_undelivered[(w_id, d_id)] = o_id + 1
        return "Delivery"

    def _stock_level(self, db: Database, draw: DrawStream) -> str:
        w_id = draw.integers(0, self.warehouses)
        stock = db.table("stock")
        with db.begin("StockLevel"):
            # Inspect 20 recent items' stock (point reads stand in for the
            # order-line join; the read volume is what matters here).
            for _ in range(20):
                i_id = draw.integers(0, self.items)
                stock.get((w_id, i_id))
        return "StockLevel"
