"""The single source of truth for hand-written metric names.

Lint rule **R3** (``python -m repro.lint``) enforces both directions of
this contract:

* every literal name passed to ``.histogram(...)`` or as the first
  argument of ``.register_callback(...)`` anywhere under ``src/repro``
  must be declared here, and
* every name declared here must be used by at least one such site.

PR 4 shipped three accounting bugs (wrong wear basis, zero-erase
division, mis-scoped counters) that boiled down to counter keys drifting
between writer and reader; a name can no longer be renamed, added or
retired on one side only without the lint gate failing.

Counters themselves are plain fields on their owners; these names are
how the registry's callbacks export them.  Prefixed families created
mechanically by ``Observation.create`` — ``device_*`` / ``flash_*`` /
``manager_*`` / ``buffer_*`` callbacks over dataclass fields,
``clock_*_us``, the per-cause ``wa_*`` write-attribution counters and the
labeled per-cause ``lba_lifetime_us`` members — are built from field
names, ``WRITE_CAUSES`` or clock categories, so they cannot drift by
hand-editing a string and are out of R3's scope.
"""

from __future__ import annotations

#: name -> help text (mirrors the ``help=`` string at the metric site).
KNOWN_METRIC_KEYS: dict[str, str] = {
    # repro.obs.Observation
    "txn_latency_us": "simulated per-transaction latency",
    "lba_lifetime_us": "simulated LBA write-to-invalidate lifetime",
    "wear_erase_count_max": "most-worn block's erase count",
    "wear_erase_count_min": "least-worn block's erase count",
    "channel_queue_depth": "in-flight array ops per channel",
    "channel_busy_us": "array time scheduled per channel",
    "channel_wait_us": "host stalls waiting per channel",
    # repro.service (per-shard registries)
    "service_txn_latency_us": "client-view latency: first attempt to completion",
    "service_queue_wait_us": "time a request spent queued before its batch started",
    "service_txns_completed": "transactions completed by this shard",
    "service_group_commits": "WAL commit groups flushed",
    "service_admission_sheds": "requests rejected at admission",
    "service_admission_waits": (
        "distinct parks at admission (not retry attempts)"
    ),
    "service_admission_wait_us": (
        "total time parked requests waited for a queue slot"
    ),
    # repro.service.replication (primary-side registries)
    "service_repl_groups_shipped": "WAL frame groups shipped to the standby",
    "service_repl_groups_acked": (
        "WAL frame groups acknowledged by the standby"
    ),
    "service_repl_lag_us": "cumulative primary-commit-to-standby-ack lag",
    "service_repl_lag_groups": "groups shipped but not yet acknowledged",
}
