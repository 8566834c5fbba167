"""Time-series sampling: periodic snapshots keyed to *simulated* time.

Final totals (Table 1) hide dynamics: GC pressure builds as the free
pool drains, invalidations accelerate once the working set has been
written once, IPA's reprogram share ramps as pages accumulate appendable
slots.  The sampler turns cumulative counters into a time series —
each sample carries the cumulative value *and* a per-second rate over
the elapsed interval — cheap enough to call once per transaction
(one float compare when no sample is due).

Collectors are plain zero-argument callables returning numbers, so any
layer can contribute without depending on this module.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

__all__ = ["TimeSeriesSampler"]


class TimeSeriesSampler:
    """Sample named collectors every ``interval_s`` of simulated time.

    Args:
        clock: The simulated clock (``now_us`` / ``now_s``).
        interval_s: Sampling period in simulated seconds.
        collectors: name -> callable returning the *cumulative* value.
        rates: Collector names for which a ``<name>_per_s`` column is
            derived from consecutive samples.  Defaults to all.
    """

    def __init__(
        self,
        clock,
        interval_s: float = 0.02,
        collectors: Mapping[str, Callable[[], float]] | None = None,
        rates: Sequence[str] | None = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be > 0")
        self.clock = clock
        self.interval_us = interval_s * 1e6
        self._collectors: dict[str, Callable[[], float]] = dict(collectors or {})
        self._rates = set(rates) if rates is not None else None
        self.samples: list[dict] = []
        self._next_due_us = 0.0
        self._prev: dict[str, float] = {}
        self._prev_t_us = 0.0

    def add_collector(self, name: str, fn: Callable[[], float]) -> None:
        """Register one more collector (before or between samples)."""
        self._collectors[name] = fn

    def maybe_sample(self) -> bool:
        """Take a sample iff the interval has elapsed; returns True if so.

        The not-due path is a single float comparison, so workload loops
        can call this unconditionally per transaction.
        """
        if self.clock.now_us < self._next_due_us:
            return False
        self.sample_now()
        return True

    def sample_now(self) -> dict:
        """Take a sample unconditionally (also used for final flushes)."""
        now_us = self.clock.now_us
        # Zero-elapsed intervals happen (a forced final flush right after
        # a periodic sample, or two explicit calls between clock
        # advances).  A rate over them is undefined — the old 1e-12
        # clamp turned any counter delta into a ~1e12x spike that wrecked
        # every *_per_s column's scale — so emit 0.0 instead.
        dt_s = (now_us - self._prev_t_us) / 1e6
        row: dict = {"t_s": now_us / 1e6}
        for name, fn in self._collectors.items():
            value = float(fn())
            row[name] = value
            if self._rates is None or name in self._rates:
                prev = self._prev.get(name)
                row[f"{name}_per_s"] = (
                    (value - prev) / dt_s
                    if prev is not None and self.samples and dt_s > 0
                    else 0.0
                )
            self._prev[name] = value
        self._prev_t_us = now_us
        self.samples.append(row)
        # Schedule from *now* (not from the previous due time): simulated
        # time advances in op-sized jumps, so aligning to a fixed grid
        # would emit bursts of back-to-back samples after a long stall.
        self._next_due_us = now_us + self.interval_us
        return row

    def __len__(self) -> int:
        return len(self.samples)
