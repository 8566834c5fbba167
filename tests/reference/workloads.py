"""Spec models of the workload draw kernel (``repro.workloads.base``):
each helper is the numpy call it stands for, drawn straight from the
generator."""

import numpy as np


def ref_nurand(rng, a, x, y):
    """TPC-C NURand(A, x, y) non-uniform random (C = 0)."""
    if y < x:
        raise ValueError(f"empty NURand range [{x}, {y}]")
    if a < 0:
        raise ValueError(f"NURand A must be >= 0, got {a}")
    return (
        (int(rng.integers(0, a + 1)) | int(rng.integers(x, y + 1)))
        % (y - x + 1)
    ) + x


def ref_zipf_cdf(n, theta):
    cdf = np.cumsum(np.arange(1, n + 1, dtype=np.float64) ** -theta)
    cdf /= cdf[-1]
    cdf[-1] = 1.0  # guard fp round-down so a draw of ~1.0 maps in-range
    return cdf


def ref_zipf_index(rng, n, theta=1.2):
    if n <= 0:
        raise ValueError(f"zipf_index needs n >= 1, got {n}")
    if theta < 0:
        raise ValueError(f"zipf_index needs theta >= 0, got {theta}")
    if n == 1:
        return 0
    cdf = ref_zipf_cdf(n, theta)
    return min(int(np.searchsorted(cdf, rng.random(), side="right")), n - 1)


def ref_value(rng, size):
    """``size`` random lowercase letters (one ``rng.integers`` draw)."""
    letters = rng.integers(0, 26, size) + ord("a")
    return letters.astype(np.uint8).tobytes().decode("ascii")
