"""Procyclic Burnside arithmetic: products, marks, induction, lambdas."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.counting import lambda_from_sigma, sigma_from_lambda
from oracles.gsets import (
    FiniteGSet,
    cyclic_decomposition,
    from_cycle_lengths,
    product,
    symmetric_power,
)
from torusclass.combinatorics import divisors, partitions
from torusclass.cyclic import CyclicBurnside


def _random_element(rng, max_orbit=8, span=3):
    return CyclicBurnside(
        {k: rng.randint(-span, span) for k in range(1, max_orbit + 1)}
    )


# random virtual elements: signed coefficients on orbit sizes up to 6
virtual_elements = st.dictionaries(
    st.integers(1, 6), st.integers(-2, 2), max_size=4
).map(CyclicBurnside)


def test_multiplication_examples():
    two = CyclicBurnside.orbit(2)
    assert two * two == CyclicBurnside({2: 2})
    assert CyclicBurnside.orbit(4) * CyclicBurnside.orbit(6) == CyclicBurnside({12: 2})
    x = CyclicBurnside({3: 2, 5: -1})
    assert CyclicBurnside.ONE * x == x


def test_multiplication_matches_orbit_decomposition():
    # the ring law against the concrete diagonal action, all a, b <= 12
    for a in range(1, 13):
        for b in range(1, 13):
            concrete = cyclic_decomposition(
                product(from_cycle_lengths((a,)), from_cycle_lengths((b,)))
            )
            assert concrete == CyclicBurnside.orbit(a) * CyclicBurnside.orbit(b)


def test_transitive_classes_are_zero_divisors():
    for n in range(1, 13):
        orb = CyclicBurnside.orbit(n)
        assert orb * orb == n * orb
        assert (orb - n) * orb == CyclicBurnside.ZERO


def test_mark_examples():
    x = 2 * CyclicBurnside.orbit(2) - CyclicBurnside.orbit(4)
    assert x.mark(4) == 0
    assert x.mark(2) == 4
    assert x.mark(1) == 0
    assert CyclicBurnside.orbit(3).mark(6) == 3
    for bad in (0, True, 2.0, 1.5):
        with pytest.raises(ValueError):
            x.mark(bad)


def test_marks_are_ring_homomorphisms():
    rng = random.Random(5)
    for _ in range(30):
        x = _random_element(rng)
        y = _random_element(rng)
        for e in range(1, 9):
            assert (x + y).mark(e) == x.mark(e) + y.mark(e)
            assert (x * y).mark(e) == x.mark(e) * y.mark(e)


def _marks_at_divisors(x, order):
    return {d: x.mark(d) for d in divisors(order)}


def test_from_marks_examples():
    assert CyclicBurnside.from_marks({1: 0, 2: 2, 4: 2}) == CyclicBurnside.orbit(2)
    assert CyclicBurnside.from_marks({1: 3, 3: 3}) == CyclicBurnside({1: 3})
    assert CyclicBurnside.from_marks({1: 0}) == CyclicBurnside.ZERO
    # non-integral coefficient at 2
    with pytest.raises(ValueError):
        CyclicBurnside.from_marks({1: 0, 2: 1})
    # missing divisor 2 of 4
    with pytest.raises(ValueError):
        CyclicBurnside.from_marks({1: 0, 4: 4})
    # 3 does not divide the order 4
    with pytest.raises(ValueError):
        CyclicBurnside.from_marks({1: 0, 2: 2, 3: 0, 4: 2})
    with pytest.raises(ValueError):
        CyclicBurnside.from_marks({})


def test_from_marks_inverts_marks():
    rng = random.Random(17)
    for _ in range(30):
        x = _random_element(rng)
        order = math.lcm(*x.coeffs)
        assert CyclicBurnside.from_marks(_marks_at_divisors(x, order)) == x
        # any multiple of the order works as well
        assert CyclicBurnside.from_marks(_marks_at_divisors(x, 2 * order)) == x


def _from_marks_by_increasing_divisor(fix):
    # the O(D^2) inversion that the mark kernel replaced, kept as an oracle
    coeffs = {}
    for d in sorted(fix):
        num = fix[d] - sum(k * c for k, c in coeffs.items() if d % k == 0)
        if num % d != 0:
            raise ValueError(f"mark vector is inconsistent at exponent {d}")
        if num:
            coeffs[d] = num // d
    return CyclicBurnside(coeffs)


def _outcome(invert, *args):
    try:
        return invert(*args)
    except ValueError as exc:
        return str(exc)


# orbit sizes up to 30, so that orders reach several primes and hundreds
# of divisors
wide_elements = st.dictionaries(
    st.integers(1, 30), st.integers(-3, 3), max_size=5
).map(CyclicBurnside)


@settings(max_examples=150, deadline=None)
@given(wide_elements, st.integers(1, 12))
def test_mark_kernel_matches_the_quadratic_inversion(x, multiple):
    order = math.lcm(*x.coeffs) * multiple
    divs = divisors(order)
    fix = _marks_at_divisors(x, order)
    got = CyclicBurnside._from_mark_list(divs, [fix[d] for d in divs])
    assert got == _from_marks_by_increasing_divisor(fix) == x


@settings(max_examples=150, deadline=None)
@given(wide_elements, st.data())
def test_mark_kernel_rejects_at_the_same_exponent(x, data):
    order = math.lcm(*x.coeffs) * data.draw(st.integers(1, 6))
    divs = divisors(order)
    fix = _marks_at_divisors(x, order)
    d = data.draw(st.sampled_from(divs))
    fix[d] += data.draw(st.integers(-5, 5).filter(bool))
    expected = _outcome(_from_marks_by_increasing_divisor, fix)
    assert _outcome(CyclicBurnside._from_mark_list, divs, [fix[d] for d in divs]) == expected
    assert _outcome(CyclicBurnside.from_marks, fix) == expected


def test_inconsistent_marks_name_the_first_bad_exponent():
    fix = _marks_at_divisors(CyclicBurnside.orbit(2), 12)
    fix[4] += 2  # also breaks the solve at 12, which comes later
    with pytest.raises(ValueError, match=r"^mark vector is inconsistent at exponent 4$"):
        CyclicBurnside.from_marks(fix)
    fix = _marks_at_divisors(CyclicBurnside.orbit(2), 12)
    fix[12] += 1
    with pytest.raises(ValueError, match=r"^mark vector is inconsistent at exponent 12$"):
        CyclicBurnside.from_marks(fix)
    with pytest.raises(ValueError, match=r"^mark vector is inconsistent at exponent 2$"):
        CyclicBurnside._from_mark_list([1, 2, 3, 6], [0, 1, 0, 1])


def test_induce_examples():
    two = CyclicBurnside.orbit(2)
    assert two.induce(3) == CyclicBurnside.orbit(6)
    assert (two + 2).induce(2) == CyclicBurnside({4: 1, 2: 2})
    assert two.induce(1) == two
    for bad in (0, True, 2.0, 1.5):
        with pytest.raises(ValueError):
            two.induce(bad)


def test_induce_matches_coset_construction():
    # induce(3, [2]): three translated copies of a 2-cycle glued by a
    # return map, scanned for orbits
    elems = [(j, s) for j in range(3) for s in range(2)]
    index = {e: i for i, e in enumerate(elems)}
    perm = []
    for j, s in elems:
        if j < 2:
            perm.append(index[(j + 1, s)])
        else:
            perm.append(index[(0, 1 - s)])
    glued = FiniteGSet(6, (tuple(perm),))
    assert cyclic_decomposition(glued) == CyclicBurnside.orbit(2).induce(3)


def test_base_change_examples():
    assert CyclicBurnside.orbit(3).base_change(2) == CyclicBurnside.orbit(3)
    assert CyclicBurnside.orbit(2).base_change(2) == CyclicBurnside({1: 2})
    assert CyclicBurnside.orbit(12).base_change(8) == CyclicBurnside({3: 4})
    for bad in (0, True, 2.0, 1.5):
        with pytest.raises(ValueError):
            CyclicBurnside.orbit(2).base_change(bad)


def test_base_change_is_a_ring_map():
    rng = random.Random(23)
    for _ in range(20):
        x = _random_element(rng)
        y = _random_element(rng)
        for d in range(1, 5):
            assert (x * y).base_change(d) == x.base_change(d) * y.base_change(d)
            assert (x + y).base_change(d) == x.base_change(d) + y.base_change(d)


def test_projection_formula():
    for a in range(1, 9):
        for b in range(1, 9):
            for d in range(1, 5):
                x = CyclicBurnside.orbit(a)
                z = CyclicBurnside.orbit(b)
                assert (x.base_change(d) * z).induce(d) == x * z.induce(d)
    rng = random.Random(29)
    for _ in range(15):
        x = _random_element(rng, max_orbit=6)
        z = _random_element(rng, max_orbit=6)
        for d in range(1, 4):
            assert (x.base_change(d) * z).induce(d) == x * z.induce(d)


def test_sigma_series_examples():
    three = CyclicBurnside.orbit(3)
    assert three.sigma_series(3) == [
        CyclicBurnside.ONE,
        three,
        2 * three,
        3 * three + 1,
    ]


def test_lambda_examples():
    two = CyclicBurnside.orbit(2)
    assert two.lambda_series(1)[1] == two
    assert two.lambda_series(2)[2] == two - 1
    for m in range(1, 6):
        x = CyclicBurnside.from_int(m)
        for i in range(m + 2):
            assert x.lambda_series(m + 1)[i] == math.comb(m, i) * CyclicBurnside.ONE


def test_sigma_series_matches_materialized_symmetric_powers():
    # the g-set engine is the oracle for the mark computation: every
    # effective element of total size <= 8 with orbit sizes <= 6
    for size in range(1, 9):
        for lengths in partitions(size):
            if lengths[0] > 6:
                continue
            x = CyclicBurnside.ZERO
            for k in lengths:
                x = x + CyclicBurnside.orbit(k)
            base = from_cycle_lengths(lengths)
            expected = [
                cyclic_decomposition(symmetric_power(base, j)) for j in range(7)
            ]
            assert x.sigma_series(6) == expected


def _series_product(a, b):
    """The product of two power series given by equally many coefficients,
    truncated to that many."""
    zero = CyclicBurnside.ZERO
    return [sum((a[i] * b[k - i] for i in range(k + 1)), zero) for k in range(len(a))]


@settings(max_examples=40, deadline=None)
@given(virtual_elements, virtual_elements)
def test_lambda_series_is_multiplicative_in_the_element(x, y):
    # lambda_t(x + y) = lambda_t(x) lambda_t(y), coefficientwise
    n = 6
    assert _series_product(x.lambda_series(n), y.lambda_series(n)) == (x + y).lambda_series(n)


@settings(max_examples=40, deadline=None)
@given(virtual_elements, virtual_elements)
def test_sigma_series_is_multiplicative_in_the_element(x, y):
    # sigma_t(x + y) = sigma_t(x) sigma_t(y), coefficientwise
    n = 6
    assert _series_product(x.sigma_series(n), y.sigma_series(n)) == (x + y).sigma_series(n)


@settings(max_examples=40, deadline=None)
@given(virtual_elements)
def test_sigma_series_of_the_opposite_is_the_inverse_series(x):
    # sigma_t(-x) = sigma_t(x)^(-1): the identity the lambda and norm-one
    # routes read their coefficients off
    n = 6
    assert _series_product(x.sigma_series(n), (-x).sigma_series(n)) == [1] + [0] * n


def test_series_truncation_must_be_a_nonnegative_int():
    two = CyclicBurnside.orbit(2)
    assert two.sigma_series(0) == two.lambda_series(0) == [CyclicBurnside.ONE]
    for bad in (True, 2.0, -1):
        for series in (two.sigma_series, two.lambda_series):
            with pytest.raises(ValueError, match="truncation"):
                series(bad)


@settings(max_examples=40, deadline=None)
@given(virtual_elements, st.integers(1, 12))
def test_lambda_series_commutes_with_base_change(x, d):
    # restriction to an index-d subgroup is a lambda-ring map; it changes
    # the lcm of the orbit sizes, and so the divisors the marks live on
    n = 6
    assert x.base_change(d).lambda_series(n) == [
        c.base_change(d) for c in x.lambda_series(n)
    ]


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(st.integers(1, 12), st.integers(-4, 4), max_size=5).map(CyclicBurnside),
    st.integers(0, 12),
)
def test_lambda_series_marks_match_the_sigma_to_lambda_recursion(x, m):
    # lambda^j is read off the symmetric powers of -x; at every divisor
    # its mark must be what the recursion makes of the marks of sigma(x)
    lams = x.lambda_series(m)
    sigmas = x.sigma_series(m)
    assert len(lams) == len(sigmas) == m + 1
    for d in divisors(math.lcm(*x.coeffs)):
        assert [lam.mark(d) for lam in lams] == lambda_from_sigma([s.mark(d) for s in sigmas])


def test_sigma_lambda_roundtrip_on_virtual_elements():
    rng = random.Random(37)
    cases = [
        CyclicBurnside({6: 1, 4: -1, 3: 1, 1: -1}),
        CyclicBurnside({5: 1, 2: 2}),
    ]
    cases += [_random_element(rng, max_orbit=4, span=1) for _ in range(10)]
    for x in cases:
        assert sigma_from_lambda(x.lambda_series(8)) == x.sigma_series(8)


def test_equality_and_coercion():
    assert CyclicBurnside({1: 3}) == 3
    assert CyclicBurnside.ZERO == 0
    assert CyclicBurnside.orbit(2) != 2
    assert CyclicBurnside({2: 1, 3: 0}) == CyclicBurnside({2: 1})


def test_an_element_equal_to_an_int_hashes_like_it():
    for m in (-2, 0, 1, 3):
        x = CyclicBurnside.from_int(m)
        assert x == m and hash(x) == hash(m)
        assert m in {x} and x in {m}
    assert {CyclicBurnside.ZERO: "zero"}[0] == "zero"
    assert hash(CyclicBurnside.orbit(2)) == hash(CyclicBurnside({2: 1}))


def test_text_and_json_roundtrip():
    x = 2 * CyclicBurnside.orbit(2) - CyclicBurnside.orbit(12) + 1
    assert str(x) == "1·[1] + 2·[2] - 1·[12]"
    assert CyclicBurnside.from_json(x.to_json()) == x
    assert str(CyclicBurnside.ZERO) == "0"


def test_from_json_refuses_a_repeated_orbit_size():
    # "1" and "01" both name orbit size 1; the second must not overwrite
    with pytest.raises(ValueError, match="orbit size 1 appears twice"):
        CyclicBurnside.from_json({"1": 1, "01": 2})
    assert CyclicBurnside.from_json({"01": 2, "2": -1}) == CyclicBurnside({1: 2, 2: -1})


def test_invalid_coefficients_rejected():
    with pytest.raises(ValueError):
        CyclicBurnside({0: 1})
    with pytest.raises(ValueError):
        CyclicBurnside({-2: 1})
    with pytest.raises(ValueError):
        CyclicBurnside({True: 1})
    with pytest.raises(ValueError):
        CyclicBurnside({2: True})
    assert CyclicBurnside.ONE != True  # noqa: E712
