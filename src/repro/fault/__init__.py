"""Power-loss fault injection for the simulated flash stack.

The package has two halves:

* :mod:`repro.fault.injector` — the chip-level :class:`FaultInjector`
  that tears a mutating flash operation at a seeded byte cut and raises
  :class:`PowerLossError`, modelling sudden power loss;
* :mod:`repro.fault.harness` — the differential recovery checker that
  runs a transactional workload, crashes it at an arbitrary op count,
  remounts a *fresh* stack over the surviving flash state (no reuse of
  pre-crash Python objects) and asserts the recovered database equals
  the committed-transaction prefix of a crash-free oracle run;
* :mod:`repro.fault.failover` — the replication extension of the
  harness: a standby stack continuously fed per WAL commit group, a
  primary killed mid-traffic, and a promotion that must retain exactly
  the acknowledged-transaction prefix (``docs/replication.md``).

See ``docs/recovery.md`` for the crash model and the remount protocol.
"""

from repro.fault.injector import FaultInjector, PowerLossError
from repro.fault.harness import (
    CrashOutcome,
    FaultBackend,
    SweepResult,
    run_crash_point,
    run_oracle,
    run_sweep,
)
from repro.fault.failover import (
    FailoverOutcome,
    run_failover_point,
    run_failover_sweep,
)

__all__ = [
    "FaultInjector",
    "PowerLossError",
    "CrashOutcome",
    "FailoverOutcome",
    "FaultBackend",
    "SweepResult",
    "run_crash_point",
    "run_failover_point",
    "run_failover_sweep",
    "run_oracle",
    "run_sweep",
]
