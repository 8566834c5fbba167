"""Benchmark harness: experiment configs, the runner, and reports.

Every table and figure of the paper is one entry of
``repro.bench.run_all``'s section table, with its fast and full scale
(see the experiment index in DESIGN.md).  The tables built from
experiment configs are data in ``repro.bench.tables`` (labelled configs
plus a column set, run and rendered by ``repro.bench.report``); each
figure and the E7, E8 and A4 analyses keep a module of their own.  The
command line prints one experiment's sections at full scale::

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
