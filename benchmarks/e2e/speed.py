"""Machine-speed probe: what turns drifting wall time into a steady number.

The reference box is a 2-vCPU virtual machine whose speed drifts by up
to 2x over tens of seconds (same code, fresh processes: 2.9 k-5.9 k
ops/s on TPC-B; process CPU time tracks wall time within a few per
cent, so it is the machine that slows down, not pre-emption).  No
number of repetitions that fits the time budget takes that out of a
median, so the host metrics are *normalised*: every ``period_s`` of
wall time a signal handler runs one fixed interpreter-bound kernel and
records how long it took.  A stretch of wall time during which the
kernel ran ``k`` times slower than :data:`REFERENCE_KERNEL_S` is worth
``1/k`` of that time on the reference machine; summing that over the
samples gives reference seconds.  The probe's own time is taken out.

The kernel belongs to the benchmark and shares no code with the
program, so no change to the program can move it.  It is driven by a
timer rather than called from the op loop so that it also reaches
inside ``ShardedService.run()``, which the benchmark cannot interleave.
"""

from __future__ import annotations

import signal
from time import perf_counter
from types import FrameType
from typing import Any, List, Optional, Sequence

#: Kernel time on the reference box at the speed the indicative numbers
#: in the README were taken; it only fixes the scale of reference time.
REFERENCE_KERNEL_S = 0.0010

_PAGE = bytes(range(256)) * 16


def kernel(rounds: int = 2600) -> int:
    """A fixed mix of what the simulator does: dict, int, bytes, 4 KB copies."""
    seen: dict = {}
    total = 0
    for i in range(rounds):
        key = (i * 2654435761) & 0xFFFF
        seen[key] = seen.get(key, 0) + 1
        stamp = key.to_bytes(4, "little") + _PAGE[:64]
        total += stamp[0] + len(stamp)
        if i & 63 == 0:
            page = bytearray(_PAGE)
            page[10:20] = stamp[:10]
            total += page[11]
    return total


class SpeedProbe:
    """Times :func:`kernel` every ``period_s`` of wall time while active."""

    def __init__(self, period_s: float = 0.05) -> None:
        self.period_s = period_s
        #: Kernel durations in seconds, in the order they were taken.
        self.samples: List[float] = []
        self._previous: Any = None

    def _on_alarm(self, _signum: int, _frame: Optional[FrameType]) -> None:
        start = perf_counter()
        kernel()
        self.samples.append(perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *_exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def reference_seconds(wall_s: float, samples: Sequence[float]) -> float:
    """``wall_s`` of work, probed by ``samples``, in reference seconds.

    The samples are evenly spaced in wall time, so each stands for the
    same share of it; a share probed at ``c`` seconds per kernel is worth
    ``REFERENCE_KERNEL_S / c`` of its wall time (a harmonic mean, which
    also keeps one interrupt-inflated sample from weighing much).
    Without samples (a phase shorter than the period) wall time stands.
    """
    work_s = wall_s - sum(samples)
    if not samples:
        return work_s
    speed = sum(REFERENCE_KERNEL_S / c for c in samples) / len(samples)
    return work_s * speed
