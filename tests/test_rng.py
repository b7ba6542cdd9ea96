import math

import numpy as np
import pytest

from isinglab.rng import POISSON_MEAN_CAP, poisson_by_inversion, purpose_key, substream


def poisson_sequential(u: float, mean: float) -> int:
    """Poisson(mean) quantile at u by sequential search: the reference inversion."""
    p = math.exp(-mean)
    cdf = p
    k = 0
    cap = int(mean + 40.0 * math.sqrt(mean) + 50.0)
    while u > cdf and k < cap:
        k += 1
        p *= mean / k
        cdf += p
    return k


def sequential_cdf(mean: float) -> list[float]:
    """The partial sums the sequential search compares u with, in order."""
    p = cdf = math.exp(-mean)
    sums = [cdf]
    for k in range(1, int(mean + 40.0 * math.sqrt(mean) + 50.0)):
        p *= mean / k
        cdf += p
        sums.append(cdf)
    return sums


def test_purpose_key_stable_and_distinct():
    a = purpose_key("glauber-updates")
    assert a == purpose_key("glauber-updates")
    assert a != purpose_key("glauber-update")
    assert 0 <= a < 2**64


def test_substream_determinism():
    x = substream(123, "unit", 4).random(8)
    y = substream(123, "unit", 4).random(8)
    assert np.array_equal(x, y)


def test_substream_independence_across_index_and_purpose():
    base = substream(123, "unit", 0).random(8)
    assert not np.array_equal(base, substream(123, "unit", 1).random(8))
    assert not np.array_equal(base, substream(123, "other", 0).random(8))
    assert not np.array_equal(base, substream(124, "unit", 0).random(8))


def test_poisson_inversion_matches_cdf():
    # the inversion is the CDF quantile: P[N < k] <= u < P[N <= k]
    from math import exp, factorial

    mean = 3.0
    for u in [0.0, 0.1, 0.3141, 0.5, 0.77, 0.999]:
        k = poisson_by_inversion(u, mean)
        cdf = 0.0
        below = 0.0
        for j in range(k + 1):
            below = cdf
            cdf += exp(-mean) * mean**j / factorial(j)
        assert below <= u <= cdf


def test_poisson_inversion_moments():
    rng = substream(7, "poisson-test")
    us = rng.random(20000)
    draws = poisson_by_inversion(us, 2.0)
    assert abs(draws.mean() - 2.0) < 0.05
    assert abs(draws.var() - 2.0) < 0.15


def test_poisson_mean_cap():
    with pytest.raises(ValueError):
        poisson_by_inversion(0.5, POISSON_MEAN_CAP + 1.0)


def test_poisson_domain_errors():
    for mean in (0.0, -1.0, POISSON_MEAN_CAP + 1e-9, math.nan):
        with pytest.raises(ValueError, match="mean must lie"):
            poisson_by_inversion([0.5], mean)
    for u in (-1e-300, 1.0, 2.0, math.nan, [0.5, 1.0], [[0.2], [-0.1]]):
        with pytest.raises(ValueError, match="u must lie"):
            poisson_by_inversion(u, 2.0)
    assert poisson_by_inversion(np.empty(0), 2.0).size == 0


def test_poisson_table_lookup_matches_sequential_search():
    # u at every partial sum, the next float above it, 0, and the largest
    # float below 1: at mean 0.1 the sums stop below that, so it takes the cap
    top = np.nextafter(1.0, 0.0)
    for mean in (1e-3, 0.1, 2.0, POISSON_MEAN_CAP):
        sums = np.array(sequential_cdf(mean))
        us = np.concatenate([[0.0, top], sums, np.nextafter(sums, 2.0)])
        us = us[us < 1.0]
        got = poisson_by_inversion(us, mean)
        assert got.dtype == np.int64
        assert got.tolist() == [poisson_sequential(float(u), mean) for u in us], mean
    cap = int(0.1 + 40.0 * math.sqrt(0.1) + 50.0)
    assert sequential_cdf(0.1)[-1] < top and poisson_by_inversion(top, 0.1) == cap


def test_poisson_u_near_one_terminates():
    k = poisson_by_inversion(1.0 - 1e-16, 5.0)
    assert k < 5 + 40 * 5**0.5 + 51
