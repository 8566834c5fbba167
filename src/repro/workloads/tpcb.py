"""TPC-B: the workload of the paper's Table 1.

The classic bank-transfer benchmark: every transaction updates one
account, one teller and one branch balance and appends a history row.
Three of the four writes are single-field balance updates of a few
bytes — the canonical "small update" IPA targets — while the history
insert is append-only (new pages, no overwrites).

Row sizes follow the TPC-B convention of ~100-byte records.  The scale
factor multiplies branches; the accounts-per-branch ratio is scaled down
from TPC-B's 100 000 so experiments run in seconds (the paper itself ran
5-10 minute demo configurations).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.engine.database import Database
from repro.engine.schema import Column, ColumnType, Schema
from repro.workloads.base import Workload, draws, pages_for_rows

if TYPE_CHECKING:
    import numpy as np

BRANCH_SCHEMA = Schema(
    [
        Column("b_id", ColumnType.INT32),
        Column("b_balance", ColumnType.INT64),
        Column("b_pad", ColumnType.CHAR, 88),
    ]
)

TELLER_SCHEMA = Schema(
    [
        Column("t_id", ColumnType.INT32),
        Column("t_b_id", ColumnType.INT32),
        Column("t_balance", ColumnType.INT64),
        Column("t_pad", ColumnType.CHAR, 84),
    ]
)

ACCOUNT_SCHEMA = Schema(
    [
        Column("a_id", ColumnType.INT32),
        Column("a_b_id", ColumnType.INT32),
        Column("a_balance", ColumnType.INT64),
        Column("a_pad", ColumnType.CHAR, 84),
    ]
)

HISTORY_SCHEMA = Schema(
    [
        Column("h_id", ColumnType.INT64),
        Column("h_a_id", ColumnType.INT32),
        Column("h_t_id", ColumnType.INT32),
        Column("h_b_id", ColumnType.INT32),
        Column("h_delta", ColumnType.INT64),
        Column("h_pad", ColumnType.CHAR, 22),
    ]
)

TELLERS_PER_BRANCH = 10


class TpcbWorkload(Workload):
    """TPC-B with configurable scale.

    Args:
        scale: Number of branches.
        accounts_per_branch: Accounts per branch (TPC-B: 100 000;
            scaled down by default).
        history_pages: Page budget for the append-only history file.
    """

    name = "tpcb"

    #: Balances start well away from zero: a two's-complement sign flip
    #: would change all 8 INT64 bytes and defeat small-update tracking,
    #: which is an artifact of starting every balance at exactly 0.
    initial_balance = 10_000_000

    def __init__(
        self,
        scale: int = 1,
        accounts_per_branch: int = 2000,
        history_pages: int = 200,
    ) -> None:
        if scale < 1:
            raise ValueError("scale must be >= 1")
        if accounts_per_branch < 1:
            raise ValueError(
                f"accounts_per_branch must be >= 1, got {accounts_per_branch}"
            )
        if history_pages < 1:
            raise ValueError(f"history_pages must be >= 1, got {history_pages}")
        self.scale = scale
        self.accounts_per_branch = accounts_per_branch
        self.history_pages = history_pages
        self._next_history_id = 0

    @property
    def n_accounts(self) -> int:
        return self.scale * self.accounts_per_branch

    @property
    def n_tellers(self) -> int:
        return self.scale * TELLERS_PER_BRANCH

    def estimate_pages(self, page_size: int) -> int:
        per_page = max(page_size // 128, 1)
        data_pages = (
            self.n_accounts + self.n_tellers + self.scale
        ) // per_page + 16
        return data_pages + self.history_pages

    def build(self, db: Database, rng: np.random.Generator) -> None:
        def pages_for(rows: int) -> int:
            return pages_for_rows(db, rows, 104)

        branches = db.create_table(
            "branch", BRANCH_SCHEMA, pages_for(self.scale), pk="b_id"
        )
        tellers = db.create_table(
            "teller", TELLER_SCHEMA, pages_for(self.n_tellers), pk="t_id"
        )
        accounts = db.create_table(
            "account", ACCOUNT_SCHEMA, pages_for(self.n_accounts), pk="a_id"
        )
        db.create_table("history", HISTORY_SCHEMA, self.history_pages, pk="h_id")

        for b in range(self.scale):
            branches.insert(
                {"b_id": b, "b_balance": self.initial_balance, "b_pad": "b" * 40}
            )
        for t in range(self.n_tellers):
            tellers.insert(
                {
                    "t_id": t,
                    "t_b_id": t // TELLERS_PER_BRANCH,
                    "t_balance": self.initial_balance,
                    "t_pad": "t" * 40,
                }
            )
        for a in range(self.n_accounts):
            accounts.insert(
                {
                    "a_id": a,
                    "a_b_id": a // self.accounts_per_branch,
                    "a_balance": self.initial_balance,
                    "a_pad": "a" * 40,
                }
            )
        self._next_history_id = 0
        db.checkpoint()

    def transaction(self, db: Database, rng: np.random.Generator) -> str:
        """The TPC-B transaction profile."""
        integers = draws(rng).integers
        a_id = integers(0, self.n_accounts)
        t_id = integers(0, self.n_tellers)
        b_id = t_id // TELLERS_PER_BRANCH
        delta = integers(-99999, 100000)

        accounts = db.table("account")
        tellers = db.table("teller")
        branches = db.table("branch")
        history = db.table("history")

        with db.begin("tpcb"):
            row = accounts.get(a_id)
            new_balance = row["a_balance"] + delta
            accounts.update_field(a_id, "a_balance", new_balance)
            tellers.update_field(
                t_id, "t_balance", tellers.get(t_id)["t_balance"] + delta
            )
            branches.update_field(
                b_id, "b_balance", branches.get(b_id)["b_balance"] + delta
            )
            history.insert(
                {
                    "h_id": self._next_history_id,
                    "h_a_id": a_id,
                    "h_t_id": t_id,
                    "h_b_id": b_id,
                    "h_delta": delta,
                    "h_pad": "h",
                }
            )
            self._next_history_id += 1
            # The transaction returns the new account balance (read path).
            _ = new_balance
        return "tpcb"
