"""Experiment E3 — Figure 2: ISPP and the physics of in-place appends.

Reproduces the right-hand side of the paper's Figure 2 (the ISPP loop
staircase) and demonstrates the two facts Section 2 derives from it:

1. raising a cell's charge needs no erase (appends are free);
2. lowering it requires erasing the whole block (overwrites are not).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.report import render_table
from repro.flash.errors import IllegalProgramError
from repro.flash.ispp import MLC_ISPP, SLC_ISPP, FloatingGateCell

#: Normalised charge the first program raises a cell to.
TARGET_CHARGE = 1.0


@dataclass
class IsppDemo:
    """Outcomes of the Figure-2 micro-experiments."""

    slc_pulses_to_program: int
    mlc_pulses_to_program: int
    slc_program_us: float
    mlc_program_us: float
    append_pulses: int  # second pass raising charge further
    identical_reprogram_pulses: int  # second pass with same target
    decrease_rejected: bool  # lowering charge raised IllegalProgramError
    staircase: list  # charge after each pulse (first program)


def run() -> IsppDemo:
    """Run the cell-level ISPP micro-experiments."""
    slc_cell = FloatingGateCell(SLC_ISPP)
    slc_trace = slc_cell.program_to(TARGET_CHARGE)

    mlc_cell = FloatingGateCell(MLC_ISPP)
    mlc_trace = mlc_cell.program_to(TARGET_CHARGE)

    # In-place append: raise the same cell's charge further, no erase.
    append_trace = slc_cell.program_to(TARGET_CHARGE * 2)

    # Reprogramming identical data: verify succeeds immediately, 0 pulses.
    identical_trace = slc_cell.program_to(slc_cell.charge)

    # Overwrite that lowers charge: physically impossible without erase.
    decrease_rejected = False
    try:
        slc_cell.program_to(TARGET_CHARGE / 2)
    except IllegalProgramError:
        decrease_rejected = True

    return IsppDemo(
        slc_pulses_to_program=slc_trace.pulses,
        mlc_pulses_to_program=mlc_trace.pulses,
        slc_program_us=slc_trace.elapsed_us,
        mlc_program_us=mlc_trace.elapsed_us,
        append_pulses=append_trace.pulses,
        identical_reprogram_pulses=identical_trace.pulses,
        decrease_rejected=decrease_rejected,
        staircase=slc_trace.charges,
    )


def report(demo: IsppDemo) -> str:
    rows = [
        ["SLC program (coarse delta-V)", str(demo.slc_pulses_to_program),
         f"{demo.slc_program_us:.0f}"],
        ["MLC program (fine delta-V)", str(demo.mlc_pulses_to_program),
         f"{demo.mlc_program_us:.0f}"],
        ["In-place append (charge increase)", str(demo.append_pulses), "-"],
        ["Rewrite of identical data", str(demo.identical_reprogram_pulses), "-"],
        ["Charge decrease without erase",
         "rejected" if demo.decrease_rejected else "ACCEPTED (BUG)", "-"],
    ]
    table = render_table(
        ["Operation", "ISPP pulses", "time (us)"],
        rows,
        title="Figure 2 — ISPP loops and the in-place append rule",
    )
    stairs = " -> ".join(f"{c:.2f}" for c in demo.staircase[:8])
    return table + f"\n\nCharge staircase (first pulses): {stairs} ..."

