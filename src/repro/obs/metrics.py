"""Fixed-bucket histograms.

A counter is a plain number on the object where the event happens
(``DeviceStats.merges``, ``AdmissionController.waits``, ...), incremented
in place and counted on every run; a run artefact
(:meth:`repro.obs.Observation.artefact`) copies what it needs.  Only a
distribution needs an object of its own: a :class:`Histogram`, built by
its owner (the observed run's transaction latencies, the lifetime
tracker's death times).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Sequence

__all__ = [
    "Histogram",
    "DEFAULT_LATENCY_BUCKETS_US",
]

#: Simulated-latency histogram buckets (microseconds): spans buffer hits
#: (~1 us) through multi-erase GC stalls (tens of ms).
DEFAULT_LATENCY_BUCKETS_US: tuple[float, ...] = (
    50.0, 100.0, 250.0, 500.0, 1_000.0, 2_500.0, 5_000.0,
    10_000.0, 25_000.0, 50_000.0, 100_000.0,
)


class Histogram:
    """Fixed-bucket histogram.

    ``bounds`` are the inclusive upper edges of the finite buckets; an
    implicit +Inf bucket catches the rest.
    """

    __slots__ = ("name", "help", "bounds", "bucket_counts", "sum", "count",
                 "nan_count")

    def __init__(
        self,
        name: str,
        help: str,
        bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS_US,
    ) -> None:
        if list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be sorted ascending")
        self.name = name
        self.help = help
        self.bounds = tuple(float(b) for b in bounds)
        self.bucket_counts = [0] * (len(self.bounds) + 1)  # +Inf last
        self.sum = 0.0
        self.count = 0
        #: NaN observations rejected (NaN compares False against every
        #: bound, so bisect would file it in an arbitrary bucket and the
        #: running ``sum`` would poison mean/quantile forever).
        self.nan_count = 0

    def observe(self, value: float) -> None:
        if value != value:  # NaN: reject, but keep it countable
            self.nan_count += 1
            return
        # bisect_left keeps the upper edges inclusive.
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile: upper edge of the bucket holding rank q.

        Good enough for reports; exact percentiles come from the raw
        latency list the harness keeps anyway.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        # The rank of q=0.0 is the *first* observation, not rank zero —
        # a zero rank would satisfy ``seen >= rank`` at the first (possibly
        # empty) bucket and report an edge no observation ever landed in.
        rank = max(q * self.count, 1.0)
        seen = 0
        for i, n in enumerate(self.bucket_counts):
            seen += n
            if seen >= rank:
                return self.bounds[i] if i < len(self.bounds) else float("inf")
        return float("inf")

    def to_dict(self) -> dict:
        """The histogram as plain data (what a run artefact stores)."""
        return {
            "bounds": list(self.bounds),
            "bucket_counts": list(self.bucket_counts),
            "sum": self.sum,
            "count": self.count,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Histogram":
        """Rebuild a histogram from :meth:`to_dict` output."""
        hist = cls("", "", bounds=data["bounds"])
        hist.bucket_counts = list(data["bucket_counts"])
        hist.sum = data["sum"]
        hist.count = data["count"]
        return hist
