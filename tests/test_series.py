"""Invariant multiset counts and the symmetric/alternating conversion."""

import math
import random

import pytest

from oracles.counting import sigma_from_lambda, sigma_series
from torusclass.cyclic import CyclicBurnside
from torusclass.series import invariant_multiset_counts, lambda_from_sigma


def test_invariant_multiset_counts_examples():
    # a 2-cycle and a fixed point: 1/((1 - x)(1 - x^2))
    assert invariant_multiset_counts({2: 1, 1: 1}, 5) == [1, 1, 2, 2, 3, 3]
    # three fixed points: C(k + 2, 2)
    assert invariant_multiset_counts({1: 3}, 4) == [1, 3, 6, 10, 15]
    # minus two 3-cycles: the polynomial (1 - x^3)^2
    assert invariant_multiset_counts({3: -2}, 7) == [1, 0, 0, -2, 0, 0, 1, 0]


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
