"""Experiment E4 — Figure 3: page format and delta-area sizing.

Validates the paper's sizing formula ``N x (1 + 3M + delta_metadata)``
across schemes, shows the space trade-off on an 8 KB page, and checks
the OOB layout (ECC_initial + one slot per delta-record) fits the
128-byte OOB area of the Jasmine modules.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.report import render_table
from repro.core.config import DELTA_METADATA_SIZE, IpaScheme
from repro.flash.ecc import ECC_SLOT_SIZE, OobLayout, OobOverflowError
from repro.storage.layout import SlottedPage

PAGE_SIZE = 8192
OOB_SIZE = 128


@dataclass
class LayoutRow:
    """One N x M configuration's space accounting."""

    scheme: str
    record_size: int
    delta_area: int
    page_overhead_pct: float
    usable_body: int
    oob_bytes_used: int
    oob_fits: bool


#: The swept schemes, smallest delta area first.
SCHEMES = (
    IpaScheme(1, 4),
    IpaScheme(2, 4),  # the paper's Table-1 configuration
    IpaScheme(2, 8),
    IpaScheme(4, 4),
    IpaScheme(4, 8),
    IpaScheme(8, 8),
)


def run() -> list[LayoutRow]:
    """Size the delta area for a sweep of N x M schemes."""
    rows = []
    for scheme in SCHEMES:
        page = SlottedPage.fresh(0, PAGE_SIZE, scheme)
        expected = scheme.n_records * (
            1 + 3 * scheme.m_bytes + DELTA_METADATA_SIZE
        )
        assert scheme.delta_area_size == expected, "paper formula violated"
        oob_needed = (1 + scheme.n_records) * ECC_SLOT_SIZE
        try:
            OobLayout(OOB_SIZE, scheme.n_records)
            fits = True
        except OobOverflowError:
            fits = False
        rows.append(
            LayoutRow(
                scheme=str(scheme),
                record_size=scheme.record_size,
                delta_area=scheme.delta_area_size,
                page_overhead_pct=100.0 * scheme.delta_area_size / PAGE_SIZE,
                usable_body=page.free_space,
                oob_bytes_used=oob_needed,
                oob_fits=fits,
            )
        )
    return rows


def report(rows: list[LayoutRow]) -> str:
    return render_table(
        [
            "Scheme",
            "Record (B)",
            "Delta area (B)",
            "Page overhead",
            "Usable body (B)",
            "OOB used (B)",
            "OOB fits",
        ],
        [
            [
                r.scheme,
                str(r.record_size),
                str(r.delta_area),
                f"{r.page_overhead_pct:.1f}%",
                str(r.usable_body),
                str(r.oob_bytes_used),
                "yes" if r.oob_fits else "NO",
            ]
            for r in rows
        ],
        title=(
            "Figure 3 — delta-record area sizing, 8 KB page "
            f"(delta_metadata = {DELTA_METADATA_SIZE} B, OOB = {OOB_SIZE} B)"
        ),
    )

