"""reprolint — repo-specific static analysis for the simulator.

The paper's claims are *count* claims, so every accounting bug is a
fidelity bug; and the whole experimental method rests on deterministic
replay, so every stray wall-clock read or unseeded RNG is a
reproducibility bug.  Generic linters cannot know any of that.  This
package encodes the repo's own contracts, in two layers.

Per-file AST rules (:mod:`repro.lint.rules`):

* **R1 determinism** — no wall-clock, no unseeded module-level RNG
  anywhere under ``src/repro``.
* **R2 layering** — nothing outside ``repro.flash`` / ``repro.ftl`` /
  ``repro.fault`` imports the flash internals; nothing outside
  ``repro.flash`` touches ``PhysicalPage`` private buffers or the flash
  kernel's private bodies (``FlashChip._program`` and kin).
* **R3 counter registry** — every literal metric name (histogram or
  callback) used in code is declared in :mod:`repro.obs.registry` and
  vice versa.
* **R4 exception hygiene** — no ``except`` broad enough to swallow
  ``PowerLossError`` (a ``RuntimeError``) without re-raising.
* **R5 hygiene** — unused imports, placeholder-free f-strings, mutable
  default arguments (the ruff subset this repo cares about, kept local
  so the gate runs with no third-party installs).
* **R6 worker seeding** — no OS entropy in multiprocessing code; worker
  randomness derives from the experiment seed.

The whole-program protocol rule (:mod:`repro.lint.protocol`, running
over the batch view in :mod:`repro.lint.program`):

* **R7 durability ordering** — WAL append/truncate paths reach a
  ``sync()`` barrier before the commit/ack boundary; replication acks
  are post-apply.

Rule ids are not renumbered.  R8 (lockset races) was retired with the
threaded service scheduler it watched.  R9 (clock domains) and R10
(commit-group pairing, quiesce before power loss) were retired when the
code made their sites structural — ``with manager.wal_group()`` and one
inlined clock crossing — and direct tests took over.

Run it as ``python -m repro.lint`` (``--format json|sarif|github``,
``--explain R7``); suppress a single finding with a
``# reprolint: allow[R3]`` comment on the same or the preceding line.
See ``docs/static_analysis.md`` for each rule's motivating bug.
"""

from repro.lint.engine import Violation, lint_file, run_lint
from repro.lint.program import Program, load_module
from repro.lint.protocol import ALL_PROGRAM_RULES

__all__ = [
    "ALL_PROGRAM_RULES",
    "Program",
    "Violation",
    "lint_file",
    "load_module",
    "run_lint",
]
