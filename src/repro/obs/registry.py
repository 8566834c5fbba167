"""The single source of truth for hand-written histogram names.

Rule **R3** (``test_r3_metric_names_match_the_registry`` in
``tests/lint/test_reprolint.py``) enforces both directions of this
contract:

* every literal name passed to ``.histogram(...)`` anywhere under
  ``src/repro`` must be declared here, and
* every name declared here must be used by at least one such site.

PR 4 shipped three accounting bugs (wrong wear basis, zero-erase
division, mis-scoped counters) that boiled down to metric keys drifting
between writer and reader; a name can no longer be renamed, added or
retired on one side only without that test failing.

Counters are plain fields on their owners and reach a run artefact as
the run's ``ExperimentResult`` fields, the ledger records and the
samples; only histograms are named here.  The per-cause lifetime
histograms of :class:`~repro.obs.ledger.LifetimeTracker` are built from
``WRITE_CAUSES``, so they cannot drift by hand-editing a string and are
out of R3's scope.
"""

from __future__ import annotations

#: name -> help text (mirrors the ``help=`` string at the metric site).
KNOWN_METRIC_KEYS: dict[str, str] = {
    # repro.obs.Observation
    "txn_latency_us": "simulated per-transaction latency",
    "lba_lifetime_us": "simulated LBA write-to-invalidate lifetime",
}
