"""Minimal relational engine over the storage manager.

The Shore-MT stand-in's upper half: typed schemas with fixed-size
records (:mod:`repro.engine.schema`), tables with primary-key hash
indexes (:mod:`repro.engine.database`), and transactions
(:mod:`repro.engine.transaction`).  Query processing is out of scope —
IPA lives entirely below this layer — but the record/update API is shaped
so workloads touch pages exactly the way an NSM engine would: fixed
field offsets, small in-place writes.
"""

from repro.engine.database import Database, Table
from repro.engine.schema import Column, ColumnType, Row, Schema
from repro.engine.transaction import Transaction

__all__ = [
    "Column",
    "ColumnType",
    "Database",
    "Row",
    "Schema",
    "Table",
    "Transaction",
]
