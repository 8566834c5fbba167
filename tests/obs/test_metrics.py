"""Metrics registry semantics: histograms, their plain-data form, null path."""

import json

import pytest

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_US,
    Histogram,
    MetricsRegistry,
    NULL_METRIC,
    NULL_REGISTRY,
)


class TestHistogram:
    def test_same_name_same_metric(self):
        registry = MetricsRegistry()
        a = registry.histogram("x")
        b = registry.histogram("x")
        a.observe(1)
        assert b is a and b.count == 1

    def test_bucketing(self):
        hist = MetricsRegistry().histogram("lat", bounds=(10, 100, 1000))
        for value in (5, 9, 50, 500, 5000, 10):
            hist.observe(value)
        # buckets: <=10, <=100, <=1000, overflow
        assert hist.bucket_counts == [3, 1, 1, 1]
        assert hist.count == 6
        assert hist.sum == 5574

    def test_quantile(self):
        hist = MetricsRegistry().histogram("lat", bounds=(10, 100, 1000))
        for _ in range(99):
            hist.observe(5)
        hist.observe(500)
        assert hist.quantile(0.5) <= 10
        assert hist.quantile(0.999) > 100

    def test_empty_quantile(self):
        hist = MetricsRegistry().histogram("lat", bounds=(1, 2))
        assert hist.quantile(0.99) == 0.0

    def test_quantile_zero_is_first_observation(self):
        # q=0.0 must land in the bucket of the *first* observation, not
        # in a leading empty bucket (the rank-0 off-by-one).
        hist = MetricsRegistry().histogram("lat", bounds=(10, 100, 1000))
        hist.observe(50)
        assert hist.quantile(0.0) == 100
        assert hist.quantile(1.0) == 100

    def test_quantile_single_observation_all_q_agree(self):
        hist = MetricsRegistry().histogram("lat", bounds=(10, 100))
        hist.observe(7)
        for q in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert hist.quantile(q) == 10

    def test_quantile_all_overflow(self):
        hist = MetricsRegistry().histogram("lat", bounds=(10, 100))
        hist.observe(5_000)
        hist.observe(6_000)
        assert hist.quantile(0.0) == float("inf")
        assert hist.quantile(0.5) == float("inf")
        assert hist.quantile(1.0) == float("inf")

    def test_quantile_out_of_range_rejected(self):
        hist = MetricsRegistry().histogram("lat", bounds=(10,))
        with pytest.raises(ValueError):
            hist.quantile(-0.1)
        with pytest.raises(ValueError):
            hist.quantile(1.1)

    def test_unsorted_bounds_rejected(self):
        from repro.obs.metrics import Histogram

        with pytest.raises(ValueError):
            Histogram("lat", "", bounds=(100, 10))

    def test_dict_round_trip(self):
        hist = MetricsRegistry().histogram("lat", bounds=(10, 100))
        for value in (5, 50, 500):
            hist.observe(value)
        back = Histogram.from_dict(json.loads(json.dumps(hist.to_dict())))
        assert back.bounds == hist.bounds
        assert back.bucket_counts == [1, 1, 1]
        assert (back.sum, back.count) == (555, 3)
        assert back.quantile(0.5) == hist.quantile(0.5) == 100

    def test_default_bounds_sorted(self):
        assert list(DEFAULT_LATENCY_BUCKETS_US) == sorted(
            DEFAULT_LATENCY_BUCKETS_US
        )


class TestDisabledRegistry:
    def test_factories_return_null_metric(self):
        assert NULL_REGISTRY.histogram("c") is NULL_METRIC

    def test_null_metric_absorbs_everything(self):
        NULL_METRIC.observe(1.5)
        assert NULL_METRIC.count == 0
        assert NULL_METRIC.sum == 0.0

    def test_disabled_registry_collects_nothing(self):
        NULL_REGISTRY.histogram("a").observe(5)
        assert NULL_REGISTRY.histogram("a").count == 0


class TestHistogramNaN:
    """PR 8 regression: NaN compares False against every bucket edge, so
    bisect filed it in an arbitrary bucket and ``sum`` went NaN forever."""

    def test_nan_rejected_and_counted(self):
        h = Histogram("lat", "", bounds=(1.0, 10.0))
        h.observe(float("nan"))
        assert h.nan_count == 1
        assert h.count == 0
        assert h.sum == 0.0
        assert h.bucket_counts == [0, 0, 0]

    def test_nan_does_not_poison_mean_or_quantile(self):
        h = Histogram("lat", "", bounds=(1.0, 10.0))
        h.observe(5.0)
        h.observe(float("nan"))
        assert h.mean == 5.0
        assert h.quantile(0.99) == 10.0  # upper edge of 5.0's bucket

    def test_nan_absent_from_export_series(self):
        h = Histogram("lat", "", bounds=(1.0,))
        h.observe(float("nan"))
        h.observe(0.5)
        # Buckets + count reflect only real observations.
        assert h.count == 1
        assert h.bucket_counts == [1, 0]
        assert h.to_dict()["count"] == 1

    def test_null_metric_has_nan_count(self):
        assert NULL_METRIC.nan_count == 0
        NULL_METRIC.observe(float("nan"))  # absorbed, still zero
        assert NULL_METRIC.nan_count == 0
