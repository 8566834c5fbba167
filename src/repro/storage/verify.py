"""Offline consistency checking (fsck for the storage engine).

Walks every table of a database and cross-checks three layers:

1. **pages** — every allocated heap page fetches cleanly (the fetch path
   already verifies checksums after delta-record reconstruction) and
   passes structural validation (magic, slots inside the body);
2. **records** — every live record decodes under the table schema;
3. **indexes** — the primary-key index and the heap agree exactly
   (no dangling RIDs, no unindexed live rows, keys match their rows).

Used by tests and by operators after crash recovery.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.database import Database, Table
from repro.storage.heap import RID
from repro.storage.layout import PageCorruptError


@dataclass
class VerifyReport:
    """Outcome of one verification pass."""

    pages_checked: int = 0
    records_checked: int = 0
    errors: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def add(self, message: str) -> None:
        self.errors.append(message)


def verify_table(table: Table) -> VerifyReport:
    """Check one table's pages, records and index."""
    report = VerifyReport()
    manager = table.heap.manager
    seen: dict[object, RID] = {}

    for page_index in range(table.heap.allocated_pages):
        lba = table.heap.base_lba + page_index
        try:
            with manager.page(lba) as page:
                page.validate()
                report.pages_checked += 1
                for slot, record in page.live_records():
                    report.records_checked += 1
                    try:
                        # A row decodes its CHAR columns when they are
                        # read: copy it so every column is.
                        row = dict(table.schema.decode(record))
                    except ValueError as err:
                        report.add(
                            f"{table.name} lba {lba} slot {slot}: "
                            f"undecodable record ({err})"
                        )
                        continue
                    if table.pk_columns is not None:
                        key = table._pk_of(row)
                        if key in seen:
                            report.add(
                                f"{table.name}: duplicate key {key!r} at "
                                f"{RID(lba, slot)} and {seen[key]}"
                            )
                        seen[key] = RID(lba, slot)
        except PageCorruptError as err:
            report.add(f"{table.name} lba {lba}: corrupt page ({err})")
        except KeyError:
            report.add(f"{table.name} lba {lba}: unreadable page")

    if table.pk_index is not None:
        for key in table.pk_index.keys():
            rid = table.pk_index.get(key)
            if key not in seen:
                report.add(
                    f"{table.name}: index key {key!r} -> {rid} has no live row"
                )
            elif seen[key] != rid:
                report.add(
                    f"{table.name}: index key {key!r} points at {rid}, "
                    f"row lives at {seen[key]}"
                )
        for key, rid in seen.items():
            if key not in table.pk_index:
                report.add(
                    f"{table.name}: live row {key!r} at {rid} missing from index"
                )
    return report


def verify_database(db: Database) -> VerifyReport:
    """Check every table; aggregate the reports."""
    total = VerifyReport()
    for table in db.tables.values():
        report = verify_table(table)
        total.pages_checked += report.pages_checked
        total.records_checked += report.records_checked
        total.errors.extend(report.errors)
    return total
