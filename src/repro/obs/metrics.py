"""Metrics registry: callback-read counters/gauges and fixed-bucket histograms.

Every metric has a name, a type and a help string, so exporters
(Prometheus text, CSV) and reports can enumerate them without guessing.

The registry owns no counter.  A counter is a plain number on the object
where the event happens (``DeviceStats.merges``,
``AdmissionController.waits``, ...), incremented in place and counted on
every run; :meth:`MetricsRegistry.register_callback` exposes it to the
exporters without touching its write site.  Only histograms keep their
values here.

A disabled registry (:data:`NULL_REGISTRY`) registers nothing and hands
out the shared :data:`NULL_METRIC`, whose ``observe`` is a no-op, so an
un-observed run pays one call per histogram sample.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Iterator, Sequence

__all__ = [
    "Histogram",
    "CallbackMetric",
    "MetricsRegistry",
    "NULL_METRIC",
    "NULL_REGISTRY",
    "DEFAULT_LATENCY_BUCKETS_US",
]

#: Simulated-latency histogram buckets (microseconds): spans buffer hits
#: (~1 us) through multi-erase GC stalls (tens of ms).
DEFAULT_LATENCY_BUCKETS_US: tuple[float, ...] = (
    50.0, 100.0, 250.0, 500.0, 1_000.0, 2_500.0, 5_000.0,
    10_000.0, 25_000.0, 50_000.0, 100_000.0,
)


class Histogram:
    """Fixed-bucket histogram (cumulative-bucket export, Prometheus style).

    ``bounds`` are the inclusive upper edges of the finite buckets; an
    implicit +Inf bucket catches the rest.  ``labels`` (optional) become
    Prometheus labels on every exported series, so several histograms of
    the same family (e.g. per-cause lifetimes) share one metric name.
    """

    __slots__ = (
        "name", "help", "bounds", "bucket_counts", "sum", "count", "labels",
        "nan_count",
    )
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS_US,
        labels: dict[str, str] | None = None,
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
        self.labels = dict(labels) if labels else None

    def observe(self, value: float) -> None:
        if value != value:  # NaN: reject, but keep it countable
            self.nan_count += 1
            return
        # bisect_left keeps the upper edges inclusive (Prometheus ``le``).
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

    @property
    def value(self) -> float:
        """Scalar summary (the count) so generic collectors can tabulate."""
        return self.count


class CallbackMetric:
    """Read-only metric whose value is computed on collection.

    The one way a counter or gauge reaches the exporters: the number
    lives on its owner (``DeviceStats``, ``FlashStats``, clock breakdown,
    admission / replication counters), the callback reads it.
    """

    __slots__ = ("name", "help", "kind", "labels", "_fn")

    def __init__(
        self,
        name: str,
        help: str,
        fn: Callable[[], float],
        kind: str = "gauge",
        labels: dict[str, str] | None = None,
    ) -> None:
        if kind not in ("counter", "gauge"):
            raise ValueError(f"callback metric kind must be counter/gauge, got {kind}")
        self.name = name
        self.help = help
        self.kind = kind
        self.labels = dict(labels) if labels else None
        self._fn = fn

    @property
    def value(self) -> float:
        return self._fn()


class _NullMetric:
    """Shared no-op histogram handed out by disabled registries."""

    __slots__ = ()
    kind = "null"
    name = "null"
    help = ""
    value = 0
    count = 0
    sum = 0.0
    nan_count = 0
    bounds: tuple = ()
    labels = None

    def observe(self, value: float) -> None:
        pass


NULL_METRIC = _NullMetric()


def _registry_key(name: str, labels: dict[str, str] | None) -> str:
    """Registry uniqueness key: the name plus any rendered labels."""
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Get-or-create factory and catalogue for a family of metrics.

    Args:
        enabled: When False :meth:`histogram` returns :data:`NULL_METRIC`
            and nothing is registered.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._metrics: dict[str, object] = {}

    # ------------------------------------------------------------------ #
    # Registration (type and name clashes are programming errors)
    # ------------------------------------------------------------------ #

    def histogram(
        self,
        name: str,
        help: str = "",
        bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS_US,
    ) -> Histogram:
        """Get-or-create the label-free histogram ``name``."""
        if not self.enabled:
            return NULL_METRIC  # type: ignore[return-value]
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = Histogram(name, help, bounds=bounds)
        elif not isinstance(metric, Histogram):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}, "
                "requested histogram"
            )
        return metric

    def register_callback(
        self,
        name: str,
        fn: Callable[[], float],
        help: str = "",
        kind: str = "gauge",
        labels: dict[str, str] | None = None,
    ) -> CallbackMetric:
        """Expose an externally-stored value (dataclass counter, ...).

        ``labels`` lets several callbacks share one metric family
        (``channel_busy_us{channel="2"}``); uniqueness is enforced on
        the (name, labels) pair.
        """
        if not self.enabled:
            return NULL_METRIC  # type: ignore[return-value]
        key = _registry_key(name, labels)
        if key in self._metrics:
            raise ValueError(f"metric {key!r} already registered")
        metric = CallbackMetric(name, help, fn, kind=kind, labels=labels)
        self._metrics[key] = metric
        return metric

    def register_metric(self, metric) -> object:
        """Adopt an externally-constructed metric (e.g. a labeled
        :class:`Histogram`) so exporters enumerate it."""
        if not self.enabled:
            return metric
        key = _registry_key(metric.name, metric.labels)
        if key in self._metrics:
            raise ValueError(f"metric {key!r} already registered")
        self._metrics[key] = metric
        return metric

    # ------------------------------------------------------------------ #
    # Collection
    # ------------------------------------------------------------------ #

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def get(self, name: str):
        """The registered metric object, or None."""
        return self._metrics.get(name)

    def collect(self) -> Iterator[object]:
        """All registered metrics, in registration order."""
        return iter(list(self._metrics.values()))

    def as_dict(self) -> dict[str, float]:
        """Scalar snapshot: key -> current value (histograms: count).

        Keys are registry keys — the metric name, plus rendered labels
        for labeled metrics, so families do not collapse to one entry.
        """
        return {key: m.value for key, m in self._metrics.items()}


#: Shared disabled registry: the default for un-observed stacks.
NULL_REGISTRY = MetricsRegistry(enabled=False)
