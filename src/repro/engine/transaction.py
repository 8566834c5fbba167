"""Transactions: commit bracketing and per-transaction accounting.

The paper states that "the regular database functionality (e.g.
recovery, locking, etc.) is NOT impacted by the proposed approach", so
the transaction layer here is intentionally thin: it brackets work,
charges the host CPU cost, and counts committed transactions for the
throughput metric.  There is no rollback — workloads are generated
conflict-free and single-threaded, as in a trace-driven evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.flash.stats import Counters


@dataclass
class TransactionStats(Counters):
    """Per-run transaction counters."""

    committed: int = 0
    by_type: dict = field(default_factory=dict)


class Transaction:
    """One transaction: ``with db.begin("payment"): ...``."""

    def __init__(self, db: "Database", txn_type: str) -> None:  # noqa: F821
        self._db = db
        self.txn_type = txn_type
        self.committed = False
        #: Assigned on __enter__ when tracing is on; stamped into every
        #: span opened while this transaction is the ambient context.
        self.txn_id: int | None = None
        self._span = None

    def __enter__(self) -> "Transaction":
        tracer = self._db.manager.tracer
        if tracer.enabled:
            self.txn_id = self._db.take_txn_id()
            self._span = tracer.begin_txn(self.txn_id, self.txn_type)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is None and not self.committed:
                self.commit()
        finally:
            if self._span is not None:
                self._span.set(committed=self.committed)
                self._db.manager.tracer.end_txn(self._span)
                self._span = None

    def commit(self) -> None:
        """Commit: force the WAL (if any), charge host cost, count."""
        if self.committed:
            raise RuntimeError("transaction already committed")
        self.committed = True
        db = self._db
        manager = db.manager
        manager.commit_wal()
        # SimClock.advance, inlined as in StorageManager.fetch: the
        # manager's HostCostModel is checked and frozen.
        cost = manager.host_costs.per_transaction_us
        clock = manager.clock
        clock._now_us += cost
        breakdown = clock.breakdown_us
        try:
            breakdown["host"] += cost
        except KeyError:
            breakdown["host"] = cost
        stats = db.txn_stats
        stats.committed += 1
        by_type = stats.by_type
        try:
            by_type[self.txn_type] += 1
        except KeyError:
            by_type[self.txn_type] = 1
