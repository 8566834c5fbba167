"""Benchmark harness: experiment configs, the runner, and reports.

Every table and figure of the paper maps to one module here (see the
experiment index in DESIGN.md).  ``repro.bench.run_all`` runs each one
as a report section, with its fast and full scale; the command line
prints one experiment's section at full scale::

    python -m repro table1
    python -m repro fig1
    ...

``tests/bench/test_paper_claims.py`` asserts the paper's claims on one
fast run of every section.
"""

from repro.bench.harness import ExperimentConfig, ExperimentResult, run_experiment
from repro.bench.report import render_comparison, render_table

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "render_comparison",
    "render_table",
    "run_experiment",
]
