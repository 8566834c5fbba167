"""Experiment E2 — Figure 1: write-amplification of one small update.

The paper's opening figure: a transaction changes ~10 bytes on a DB
page.  Traditionally the DBMS writes the whole 8 KB page (and the SSD
invalidates 1+ Flash pages); with IPA a ~100-byte delta-record is
transferred via ``write_delta`` and appended — no page invalidated.

This bench performs exactly that micro-scenario on both stacks and
reports bytes transferred and pages invalidated per update.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import IpaScheme
from repro.bench.harness import ExperimentConfig
from repro.bench.report import render_table
from repro.engine.database import Database
from repro.engine.schema import Column, ColumnType, Schema
from repro.flash.modes import FlashMode
from repro.workloads.base import Workload

import numpy as np

UPDATE_BYTES = 10
PAGE_SIZE = 8192

#: Figure 1 illustrates a 10-byte update becoming a ~100-byte
#: delta-record, so the scheme must allow 10 changed bytes per record.
FIG1_SCHEME = IpaScheme(n_records=2, m_bytes=10)


class _OnePageWorkload(Workload):
    """A single table page holding one padded record."""

    name = "fig1-micro"

    def estimate_pages(self, page_size: int) -> int:
        return 600  # plenty: no GC interference in the micro-benchmark

    def build(self, db: Database, rng: np.random.Generator) -> None:
        schema = Schema(
            [
                Column("id", ColumnType.INT32),
                Column("field", ColumnType.CHAR, UPDATE_BYTES),
                Column("payload", ColumnType.CHAR, 190),
            ]
        )
        table = db.create_table("t", schema, n_pages=8, pk="id")
        table.insert({"id": 1, "field": "x" * UPDATE_BYTES, "payload": "p" * 190})
        db.checkpoint()

    def transaction(self, db: Database, rng: np.random.Generator) -> str:
        # Exactly 10 bytes of net change on the page.
        with db.begin("update"):
            db.table("t").update_field(1, "field", "y" * UPDATE_BYTES)
        return "update"


@dataclass
class Fig1Row:
    """One bar of Figure 1."""

    label: str
    update_bytes: int
    bytes_transferred: int
    pages_invalidated: int
    write_amplification: float


def run() -> list[Fig1Row]:
    """One small update through each stack; measure the write path."""
    rows = []
    for architecture, mode, scheme, label in (
        ("traditional", FlashMode.MLC, FIG1_SCHEME, "Traditional (whole page)"),
        ("ipa-native", FlashMode.PSLC, FIG1_SCHEME, "IPA (write_delta)"),
    ):
        workload = _OnePageWorkload()
        config = ExperimentConfig(
            workload=workload,
            architecture=architecture,
            mode=mode,
            scheme=scheme,
            transactions=1,
            page_size=PAGE_SIZE,
        )
        db, manager, rng = config.load(workload, seed=7)
        before = manager.device.stats.snapshot()
        workload.transaction(db, rng)
        db.checkpoint()  # force the eviction write
        diff = manager.device.stats.diff(before)
        transferred = diff.host_bytes_written
        rows.append(
            Fig1Row(
                label=label,
                update_bytes=UPDATE_BYTES,
                bytes_transferred=transferred,
                pages_invalidated=diff.page_invalidations,
                write_amplification=transferred / UPDATE_BYTES,
            )
        )
    return rows


def report(rows: list[Fig1Row]) -> str:
    return render_table(
        ["Write path", "Update (B)", "Transferred (B)", "Pages invalidated", "WA"],
        [
            [
                r.label,
                str(r.update_bytes),
                str(r.bytes_transferred),
                str(r.pages_invalidated),
                f"{r.write_amplification:.0f}x",
            ]
            for r in rows
        ],
        title="Figure 1 — write-amplification: traditional vs IPA",
    )

