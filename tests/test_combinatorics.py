"""Enumeration layer: orders, counts, cycle-type powers."""

import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.counting import compositions, multinomial, power_cycle_type
from oracles.gsets import cycle_type, perm_of_cycle_type
from torusclass.combinatorics import divisors, is_prime_power, partitions


def _compositions_by_breakpoints(total):
    # independent oracle: compositions of n correspond to subsets of the
    # n - 1 internal breakpoints
    if total == 0:
        return [()]
    out = []
    for mask in range(2 ** (total - 1)):
        comp = []
        run = 1
        for pos in range(total - 1):
            if mask >> pos & 1:
                comp.append(run)
                run = 1
            else:
                run += 1
        comp.append(run)
        out.append(tuple(comp))
    return out


def test_compositions_small_examples():
    assert compositions(0) == [()]
    assert compositions(1) == [(1,)]
    assert compositions(3) == [(3,), (2, 1), (1, 2), (1, 1, 1)]


def test_compositions_match_breakpoint_enumeration():
    for total in range(9):
        assert sorted(compositions(total)) == sorted(_compositions_by_breakpoints(total))
    assert len(compositions(8)) == 128


def test_compositions_count_is_power_of_two():
    for total in range(1, 13):
        assert len(compositions(total)) == 2 ** (total - 1)


def test_compositions_order_is_lex_descending():
    for total in range(1, 9):
        comps = compositions(total)
        assert comps == sorted(comps, reverse=True)


def test_compositions_negative_rejected():
    with pytest.raises(ValueError):
        compositions(-1)


def test_partitions_examples():
    assert partitions(0) == [()]
    assert partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert len(partitions(10)) == 42
    # the total is a nonnegative int: a bool or a float is refused and named
    for bad in (-1, True, False, 2.0):
        with pytest.raises(ValueError, match=f"n={bad!r} "):
            partitions(bad)


def test_partitions_are_deduplicated_sorted_compositions():
    for n in range(9):
        expected = sorted(
            {tuple(sorted(c, reverse=True)) for c in compositions(n)}, reverse=True
        )
        assert partitions(n) == expected


def test_multinomial_examples():
    assert multinomial(4, (2,)) == 6
    assert multinomial(4, (2, 1)) == 12
    assert multinomial(3, ()) == 1
    assert multinomial(5, (5,)) == 1


def _count_disjoint_tuples(n, sizes):
    # brute-force oracle: materialize the tuples
    from itertools import combinations

    def rec(free, remaining):
        if not remaining:
            return 1
        total = 0
        for block in combinations(free, remaining[0]):
            rest = tuple(x for x in free if x not in block)
            total += rec(rest, remaining[1:])
        return total

    return rec(tuple(range(n)), tuple(sizes))


def test_multinomial_matches_enumeration():
    for n in range(7):
        for w in range(n + 1):
            for comp in compositions(w):
                assert multinomial(n, comp) == _count_disjoint_tuples(n, comp)


def test_multinomial_overweight_rejected():
    with pytest.raises(ValueError):
        multinomial(3, (2, 2))
    with pytest.raises(ValueError):
        multinomial(2, (0, 2))


def test_power_cycle_type_examples():
    assert power_cycle_type((4,), 2) == (2, 2)
    assert power_cycle_type((6,), 4) == (3, 3)
    assert power_cycle_type((3, 2), 6) == (1, 1, 1, 1, 1)
    assert power_cycle_type((5, 2, 1), 1) == (5, 2, 1)


def _power_type_by_permutation(lam, e):
    # oracle: build a permutation of that type, raise it to the e-th power
    perm = perm_of_cycle_type(lam)
    image = list(range(len(perm)))
    for _ in range(e):
        image = [perm[x] for x in image]
    return cycle_type(image)


def test_power_cycle_type_matches_permutation_powers():
    for n in range(1, 8):
        for lam in partitions(n):
            for e in range(1, 7):
                assert power_cycle_type(lam, e) == _power_type_by_permutation(lam, e)


def test_power_cycle_type_bad_input():
    for bad in (0, True, 2.0, 1.5):
        with pytest.raises(ValueError):
            power_cycle_type((4,), bad)
    # cycle lengths are positive ints too: a bool or a float is refused,
    # not read as 1 or passed on to math.gcd
    for lam in ((0,), (True, 1), (2.0,), (1.5, 0.5), (3, -1)):
        with pytest.raises(ValueError):
            power_cycle_type(lam, 2)


def test_divisors_match_a_scan():
    for n in range(1, 400):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]
    assert len(divisors(30030)) == 64
    for bad in (0, -4, True, 2.0, 1.5):
        with pytest.raises(ValueError):
            divisors(bad)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 10**4), max_size=4))
def test_divisors_of_several_orders_are_those_of_their_lcm(orders):
    # the parts are factored one by one and their exponents merged: 0 to 6
    # orders, the first two repeated, and no orders at all (lcm 1) included
    orders += orders[:2]
    assert divisors(*orders) == divisors(math.lcm(*orders))


def test_divisors_of_two_huge_primes_skip_factoring_their_lcm():
    # trial division of the lcm would run to its second largest prime, 10^8
    start = time.perf_counter()
    assert divisors(100000007, 99999989) == [1, 99999989, 100000007, 100000007 * 99999989]
    assert time.perf_counter() - start < 1
    assert divisors() == [1]
    for bad in ((2, 0), (3, True), (1, True), (4, 2.0)):
        with pytest.raises(ValueError):
            divisors(*bad)


def test_prime_powers_match_a_scan():
    def brute(q):
        primes = [p for p in range(2, q + 1) if all(p % d for d in range(2, p))]
        return any(p**k == q for p in primes for k in range(1, q.bit_length() + 1))

    for q in range(-2, 300):
        assert is_prime_power(q) == brute(q), q
    assert [q for q in range(2, 10) if is_prime_power(q)] == [2, 3, 4, 5, 7, 8, 9]
    # only integers are field sizes: floats and bools are refused
    for q in (2.0, 4.5, 8.0, 9.0, True):
        assert not is_prime_power(q), q
    assert is_prime_power(3**40)
    # the least prime factor decides: trial division of the Mersenne prime
    # 2^61 - 1 would take about 1.5 * 10^9 steps
    start = time.perf_counter()
    assert not is_prime_power(2 * (2**61 - 1))
    assert time.perf_counter() - start < 0.1
