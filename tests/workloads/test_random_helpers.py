"""Property tests for the shared skewed-random helpers.

The old ``zipf_index`` rejection-sampled ``rng.zipf`` (theta > 1 only,
unbounded support): ``n == 1`` spun until the heavy tail emitted a 1,
theta <= 1 raised inside numpy, and small-n draws burnt thousands of
rejects.  The inverse-CDF rewrite must keep the distribution's shape
while fixing those corners — which is what these properties pin down.
"""

from array import array

import numpy as np
import pytest

from repro.workloads.base import (
    _ZIPF_CDF_CACHE,
    _zipf_cdf,
    draws,
    nurand,
    release,
    zipf_index,
)


def rng(seed=0):
    return np.random.default_rng(seed)


class TestZipfIndex:
    def test_bounds_hold_across_shapes(self):
        r = rng()
        for n in (1, 2, 3, 7, 100, 1000):
            for theta in (0.0, 0.5, 1.0, 1.2, 3.0):
                for _ in range(200):
                    idx = zipf_index(r, n, theta)
                    assert 0 <= idx < n

    def test_n_one_returns_zero_immediately(self):
        assert zipf_index(rng(), 1) == 0
        assert zipf_index(rng(), 1, theta=0.0) == 0

    def test_invalid_args_raise(self):
        with pytest.raises(ValueError):
            zipf_index(rng(), 0)
        with pytest.raises(ValueError):
            zipf_index(rng(), -3)
        with pytest.raises(ValueError):
            zipf_index(rng(), 10, theta=-0.1)

    def test_theta_zero_is_uniform(self):
        n, draws = 8, 40_000
        r = rng(1)
        counts = np.bincount(
            [zipf_index(r, n, 0.0) for _ in range(draws)], minlength=n
        )
        expected = draws / n
        assert np.all(np.abs(counts - expected) < 5 * np.sqrt(expected))

    def test_skew_orders_ranks(self):
        # Rank 0 must dominate, and frequencies must be non-increasing
        # in rank (within sampling noise) for a skewed theta.
        n, draws = 16, 40_000
        r = rng(2)
        counts = np.bincount(
            [zipf_index(r, n, 1.2) for _ in range(draws)], minlength=n
        )
        assert counts[0] == counts.max()
        assert counts[0] > 3 * counts[n // 2]

    def test_matches_analytic_head_probability(self):
        # P(rank 0) = 1 / H_{n,theta}; check the sampler hits it.
        n, theta, draws = 10, 1.2, 50_000
        weights = np.arange(1, n + 1, dtype=float) ** -theta
        p0 = weights[0] / weights.sum()
        r = rng(3)
        hits = sum(zipf_index(r, n, theta) == 0 for _ in range(draws))
        assert abs(hits / draws - p0) < 0.01

    def test_cdf_cache_is_reused(self):
        _ZIPF_CDF_CACHE.clear()
        r = rng()
        for _ in range(50):
            zipf_index(r, 123, 1.2)
        assert list(_ZIPF_CDF_CACHE) == [(123, 1.2)]
        assert _zipf_cdf(123, 1.2) is _ZIPF_CDF_CACHE[(123, 1.2)]
        # One form per table: the raw doubles the kernel bisects.
        table = _ZIPF_CDF_CACHE[(123, 1.2)]
        assert type(table) is array and table.typecode == "d" and len(table) == 123

    def test_invalid_args_are_not_cached(self):
        _ZIPF_CDF_CACHE.clear()
        for n, theta in ((0, 1.2), (10, -0.1)):
            with pytest.raises(ValueError):
                zipf_index(rng(), n, theta)
        assert not _ZIPF_CDF_CACHE

    def test_one_uniform_per_draw(self):
        """A draw costs one ``random()`` of the generator and nothing else,
        read through the stream and, after a release, from the generator;
        ``n == 1`` costs nothing."""
        r, reference = rng(5), rng(5)
        zipf_index(r, 50, 1.2)
        zipf_index(r, 1, 1.2)
        reference.random()
        assert draws(r).random() == reference.random()
        release(r)
        assert r.random() == reference.random()

    def test_cdf_terminates_at_one(self):
        for n, theta in ((2, 0.0), (1000, 1.2), (17, 5.0)):
            cdf = _zipf_cdf(n, theta)
            assert cdf[-1] == 1.0
            assert np.all(np.diff(cdf) > 0)

    def test_deterministic_under_seed(self):
        a = [zipf_index(rng(7), 50, 1.2) for _ in range(100)]
        b = [zipf_index(rng(7), 50, 1.2) for _ in range(100)]
        assert a == b


class TestNurand:
    def test_bounds_hold(self):
        r = rng()
        for _ in range(2000):
            assert 0 <= nurand(r, 255, 0, 99) <= 99
            assert 5 <= nurand(r, 8191, 5, 5) <= 5

    def test_degenerate_single_value_range(self):
        assert nurand(rng(), 255, 42, 42) == 42

    def test_two_bounded_draws_per_call(self):
        r, reference = rng(6), rng(6)
        drawn = nurand(r, 255, 0, 99)
        assert drawn == (
            int(reference.integers(0, 256)) | int(reference.integers(0, 100))
        ) % 100
        assert draws(r).integers(0, 1000) == reference.integers(0, 1000)
        release(r)
        assert r.integers(0, 1000) == reference.integers(0, 1000)

    def test_invalid_ranges_raise(self):
        with pytest.raises(ValueError):
            nurand(rng(), 255, 10, 9)
        with pytest.raises(ValueError):
            nurand(rng(), -1, 0, 9)

    def test_is_non_uniform(self):
        # The OR with A biases toward set low bits; a chi-square-ish
        # sanity check that the distribution is visibly skewed.
        r = rng(4)
        counts = np.bincount(
            [nurand(r, 255, 0, 999) for _ in range(20_000)], minlength=1000
        )
        assert counts.max() > 3 * max(counts.min(), 1)
