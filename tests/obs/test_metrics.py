"""Histogram semantics and the histograms' plain-data form."""

import json

import pytest

from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS_US, Histogram


class TestHistogram:
    def test_bucketing(self):
        hist = Histogram("lat", "", bounds=(10, 100, 1000))
        for value in (5, 9, 50, 500, 5000, 10):
            hist.observe(value)
        # buckets: <=10, <=100, <=1000, overflow
        assert hist.bucket_counts == [3, 1, 1, 1]
        assert hist.count == 6
        assert hist.sum == 5574

    def test_quantile(self):
        hist = Histogram("lat", "", bounds=(10, 100, 1000))
        for _ in range(99):
            hist.observe(5)
        hist.observe(500)
        assert hist.quantile(0.5) <= 10
        assert hist.quantile(0.999) > 100

    def test_empty_quantile(self):
        hist = Histogram("lat", "", bounds=(1, 2))
        assert hist.quantile(0.99) == 0.0

    def test_quantile_zero_is_first_observation(self):
        # q=0.0 must land in the bucket of the *first* observation, not
        # in a leading empty bucket (the rank-0 off-by-one).
        hist = Histogram("lat", "", bounds=(10, 100, 1000))
        hist.observe(50)
        assert hist.quantile(0.0) == 100
        assert hist.quantile(1.0) == 100

    def test_quantile_single_observation_all_q_agree(self):
        hist = Histogram("lat", "", bounds=(10, 100))
        hist.observe(7)
        for q in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert hist.quantile(q) == 10

    def test_quantile_all_overflow(self):
        hist = Histogram("lat", "", bounds=(10, 100))
        hist.observe(5_000)
        hist.observe(6_000)
        assert hist.quantile(0.0) == float("inf")
        assert hist.quantile(0.5) == float("inf")
        assert hist.quantile(1.0) == float("inf")

    def test_quantile_out_of_range_rejected(self):
        hist = Histogram("lat", "", bounds=(10,))
        with pytest.raises(ValueError):
            hist.quantile(-0.1)
        with pytest.raises(ValueError):
            hist.quantile(1.1)

    def test_unsorted_bounds_rejected(self):
        from repro.obs.metrics import Histogram

        with pytest.raises(ValueError):
            Histogram("lat", "", bounds=(100, 10))

    def test_dict_round_trip(self):
        hist = Histogram("lat", "", bounds=(10, 100))
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

    def test_registry_histogram_has_nan_count(self):
        h = Histogram("lat", "", bounds=(1.0,))
        assert h.nan_count == 0
        h.observe(float("nan"))
        assert h.nan_count == 1 and h.count == 0
