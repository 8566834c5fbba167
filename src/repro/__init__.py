"""ipa-repro: In-Place Appends (IPA) for DBMS storage on Flash.

Reproduction of Hardock, Petrov, Gottstein, Buchmann — "In-Place Appends
for Real: DBMS Overwrites on Flash without Erase" (EDBT 2017).

Layer map (bottom-up):

* :mod:`repro.flash` — bit-accurate NAND simulator (ISPP, modes, ECC).
* :mod:`repro.ftl` — device architectures: conventional SSD, IPA-aware
  SSD, NoFTL with regions and ``write_delta``.
* :mod:`repro.baselines` — In-Page Logging (Lee & Moon, SIGMOD'07).
* :mod:`repro.core` — the paper's contribution: N x M delta-records.
* :mod:`repro.storage` — pages, buffer pool, storage manager, B+-tree.
* :mod:`repro.engine` — schemas, tables, transactions, WAL + recovery.
* :mod:`repro.workloads` — TPC-B/-C, TATP, LinkBench, YCSB, traces.
* :mod:`repro.stack` — the one builder from a backend name to a stack.
* :mod:`repro.bench` / :mod:`repro.analysis` — one module per paper
  table/figure plus the supporting analyses.

Quick start: see ``examples/quickstart.py`` or the README.
"""

__version__ = "1.0.0"

__all__ = [
    "__version__",
]
