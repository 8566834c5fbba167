"""Tables and the database facade."""

from __future__ import annotations

from typing import Any, Iterator, Mapping

from repro.engine.index import DuplicateKeyError, HashIndex
from repro.engine.schema import Row, Schema
from repro.engine.transaction import Transaction, TransactionStats
from repro.storage.heap import HeapFile, RID
from repro.storage.manager import StorageManager


class Table:
    """A schema-typed heap file with an optional primary-key index.

    Not constructed directly — use :meth:`Database.create_table`.
    """

    def __init__(
        self,
        name: str,
        schema: Schema,
        heap: HeapFile,
        pk_columns: tuple[str, ...] | None,
    ) -> None:
        self.name = name
        self.schema = schema
        self.heap = heap
        self.pk_columns = pk_columns
        self.pk_index: HashIndex | None = (
            HashIndex(f"{name}.pk") if pk_columns else None
        )

    def _pk_of(self, values: Mapping[str, Any]) -> Any:
        assert self.pk_columns is not None
        if len(self.pk_columns) == 1:
            return values[self.pk_columns[0]]
        return tuple(values[c] for c in self.pk_columns)

    # ------------------------------------------------------------------ #
    # DML
    # ------------------------------------------------------------------ #

    def insert(self, values: Mapping[str, Any]) -> RID:
        """Insert one row; maintains the primary-key index.

        Raises:
            DuplicateKeyError: the key is already indexed.  Checked before
                the heap is touched, so a refused row leaves no trace.
        """
        pk_index = self.pk_index
        if pk_index is None:
            return self.heap.insert(self.schema.encode(values))
        key = self._pk_of(values)
        if key in pk_index:
            raise DuplicateKeyError(
                f"duplicate key {key!r} in index {pk_index.name}"
            )
        rid = self.heap.insert(self.schema.encode(values))
        pk_index.insert(key, rid)
        return rid

    def get(self, pk: Any) -> Row:
        """Point lookup by primary key.

        The row is a read-only mapping whose CHAR columns decode when
        read; ``dict(row)`` gives a mutable copy.
        """
        if self.pk_index is None:
            raise RuntimeError(f"table {self.name} has no primary key")
        rid = self.pk_index.get(pk)
        return self.schema.decode(self.heap.read(rid))

    def rid_of(self, pk: Any) -> RID:
        """RID of a primary key."""
        if self.pk_index is None:
            raise RuntimeError(f"table {self.name} has no primary key")
        return self.pk_index.get(pk)

    def update_field(self, pk: Any, column: str, value: Any) -> None:
        """In-place single-column update — the paper's "small update"."""
        rid = self.rid_of(pk)
        offset, data = self.schema.encode_field(column, value)
        self.heap.update(rid, offset, data)

    def update_fields(self, pk: Any, values: Mapping[str, Any]) -> None:
        """Update several columns of one row as ONE update operation.

        The tuple-level grouping matters for IPA: the whole multi-column
        update becomes a single delta-record whose changed bytes pool
        against M (paper: one delta-record holds up to M changed bytes).
        """
        rid = self.rid_of(pk)
        writes = [
            self.schema.encode_field(column, value)
            for column, value in values.items()
        ]
        self.heap.update_multi(rid, writes)

    def delete(self, pk: Any) -> None:
        """Delete a row by primary key."""
        rid = self.rid_of(pk)
        self.heap.delete(rid)
        assert self.pk_index is not None
        self.pk_index.delete(pk)

    def scan(self) -> Iterator[Row]:
        """Full-table scan."""
        for _rid, record in self.heap.scan():
            yield self.schema.decode(record)

    def __len__(self) -> int:
        return self.heap.record_count


class Database:
    """Facade: table catalog + transaction bracketing over one manager."""

    def __init__(self, manager: StorageManager) -> None:
        self.manager = manager
        self.tables: dict[str, Table] = {}
        self.txn_stats = TransactionStats()
        self._next_file_id = 1
        self._next_txn_id = 1

    def take_txn_id(self) -> int:
        """Monotonic transaction id (used by tracing only)."""
        txn_id = self._next_txn_id
        self._next_txn_id += 1
        return txn_id

    def create_table(
        self,
        name: str,
        schema: Schema,
        n_pages: int,
        pk: tuple[str, ...] | str | None = None,
    ) -> Table:
        """Create a table backed by a fresh LBA range.

        Args:
            name: Table name (unique).
            schema: Record schema.
            n_pages: Pages reserved for the table's heap file.
            pk: Primary-key column(s), if any.
        """
        if name in self.tables:
            raise ValueError(f"table {name} already exists")
        base, _end = self.manager.allocate_lba_range(n_pages)
        heap = HeapFile(self.manager, self._next_file_id, base, n_pages)
        self._next_file_id += 1
        pk_columns: tuple[str, ...] | None
        if pk is None:
            pk_columns = None
        elif isinstance(pk, str):
            pk_columns = (pk,)
        else:
            pk_columns = tuple(pk)
        table = Table(name, schema, heap, pk_columns)
        self.tables[name] = table
        return table

    def table(self, name: str) -> Table:
        """Look up a table by name."""
        return self.tables[name]

    def begin(self, txn_type: str = "txn") -> Transaction:
        """Start a transaction: ``with db.begin("payment"): ...``."""
        return Transaction(self, txn_type)

    def checkpoint(self) -> None:
        """Flush every dirty buffer page; truncate the WAL if present."""
        self.manager.flush_all()
        if self.manager.wal is not None:
            self.manager.wal.truncate()
