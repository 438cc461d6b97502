"""Invariant multiset counts and the symmetric/alternating conversion."""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.counting import lambda_from_sigma, sigma_from_lambda
from oracles.cyclic import sigma_series
from torusclass.cyclic import CyclicBurnside
from torusclass.combinatorics import invariant_multiset_counts


def test_invariant_multiset_counts_examples():
    # a 2-cycle and a fixed point: 1/((1 - x)(1 - x^2))
    assert invariant_multiset_counts({2: 1, 1: 1}, 5) == [1, 1, 2, 2, 3, 3]
    # three fixed points: C(k + 2, 2)
    assert invariant_multiset_counts({1: 3}, 4) == [1, 3, 6, 10, 15]
    # minus two 3-cycles: the polynomial (1 - x^3)^2
    assert invariant_multiset_counts({3: -2}, 7) == [1, 0, 0, -2, 0, 0, 1, 0]


def _rising_factorial_counts(cycles, truncation):
    # the convolution the per-factor passes replaced: one factor series
    # (1 - y)^(-m) in y = x^c per cycle length, from rising factorials
    counts = [1] + [0] * truncation
    for length, mult in cycles.items():
        factor = [1]
        for i in range(1, truncation // length + 1):
            factor.append(factor[-1] * (mult + i - 1) // i)
        for k in range(truncation, 0, -1):
            counts[k] += sum(
                factor[i] * counts[k - i * length] for i in range(1, k // length + 1)
            )
    return counts


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(st.integers(1, 8), st.integers(-6, 6), max_size=6),
    st.integers(0, 20),
)
def test_per_factor_passes_match_the_rising_factorial_convolution(cycles, truncation):
    # zero multiplicities and truncations below a cycle length included
    got = invariant_multiset_counts(cycles, truncation)
    assert got == _rising_factorial_counts(cycles, truncation)


def test_invariant_multiset_counts_of_opposite_sets_are_inverse():
    rng = random.Random(13)
    for _ in range(25):
        cycles = {rng.randint(1, 5): rng.randint(1, 4) for _ in range(3)}
        opposite = {c: -m for c, m in cycles.items()}
        a = invariant_multiset_counts(cycles, 8)
        b = invariant_multiset_counts(opposite, 8)
        product = [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(9)]
        assert product == [1] + [0] * 8


def test_lambda_of_a_single_point():
    # one point: every symmetric power is a point, alternating stops at 1
    assert lambda_from_sigma([1, 1, 1, 1, 1]) == [1, 1, 0, 0, 0]


def test_lambda_of_finite_trivial_sets_is_binomial():
    for m in range(1, 6):
        sigmas = [math.comb(m + k - 1, k) for k in range(7)]
        lams = lambda_from_sigma(sigmas)
        assert lams == [math.comb(m, i) for i in range(7)]


def test_sigma_lambda_roundtrip_over_integers():
    rng = random.Random(3)
    for _ in range(25):
        sigmas = [1] + [rng.randint(-6, 6) for _ in range(8)]
        assert sigma_from_lambda(lambda_from_sigma(sigmas)) == sigmas


def test_lambda_from_sigma_of_order_two_orbit():
    two = CyclicBurnside.orbit(2)
    sigmas = sigma_series(two, 2)
    assert sigmas == [CyclicBurnside.ONE, two, two + 1]
    lams = lambda_from_sigma(sigmas)
    assert lams == [CyclicBurnside.ONE, two, two - 1]


def test_divide_drops_a_trivial_point():
    # sigma_t is additive-to-multiplicative, so the symmetric series of
    # x + 1 is that of x convolved with that of a point, and dividing by
    # the latter drops the point
    x = CyclicBurnside.orbit(3)
    with_point = sigma_series(x + 1, 4)
    sx = sigma_series(x, 4)
    point = sigma_series(CyclicBurnside.ONE, 4)
    for k in range(5):
        conv = CyclicBurnside.ZERO
        for i in range(k + 1):
            conv = conv + sx[i] * point[k - i]
        assert conv == with_point[k]
