"""Compositions, partitions, multinomial counts, cycle-type powers,
divisors and prime powers.

Enumeration order is lexicographic descending everywhere so that basis
indexing, JSON output, and cache keys are reproducible across runs.
"""

from __future__ import annotations

import math
from functools import cache

Composition = tuple[int, ...]
Partition = tuple[int, ...]


def compositions(total: int) -> list[Composition]:
    """All ordered tuples of positive integers with the given sum.

    ``compositions(0) == [()]`` and for total >= 1 there are
    ``2**(total - 1)`` of them, listed in lexicographic descending order.
    """
    if total < 0:
        raise ValueError("composition total must be nonnegative")
    return list(_compositions(total))


@cache
def _compositions(total: int) -> tuple[Composition, ...]:
    if total == 0:
        return ((),)
    out = []
    for first in range(total, 0, -1):
        for rest in _compositions(total - first):
            out.append((first,) + rest)
    return tuple(out)


def partitions(n: int) -> list[Partition]:
    """Weakly decreasing tuples of positive integers summing to n.

    Lexicographic descending order: partitions(4) starts at (4,) and ends
    at (1, 1, 1, 1).
    """
    if n < 0:
        raise ValueError("partition total must be nonnegative")
    return list(_partitions(n, n))


@cache
def _partitions(n: int, max_part: int) -> tuple[Partition, ...]:
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def multinomial(n: int, parts: Composition) -> int:
    """Number of tuples of pairwise-disjoint subsets of an n-set with the
    prescribed cardinalities: n! / (i_1! ... i_t! (n - j)!) where j is the
    sum of the parts.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if any(p < 1 for p in parts):
        raise ValueError("parts must be positive")
    weight = sum(parts)
    if weight > n:
        raise ValueError(f"parts sum to {weight}, exceeding n={n}")
    result = math.factorial(n) // math.factorial(n - weight)
    for p in parts:
        result //= math.factorial(p)
    return result


def power_cycle_type(lam: Partition, e: int) -> Partition:
    """Cycle type of the e-th power of a permutation of cycle type lam.

    A cycle of length c falls apart into gcd(c, e) cycles of length
    c / gcd(c, e).
    """
    if e < 1:
        raise ValueError("exponent must be positive")
    if any(c < 1 for c in lam):
        raise ValueError("cycle lengths must be positive")
    out: list[int] = []
    for c in lam:
        g = math.gcd(c, e)
        out.extend([c // g] * g)
    return tuple(sorted(out, reverse=True))


def divisors(n: int) -> list[int]:
    """The positive divisors of n, ascending.

    Found by trial-division factoring, which stops once the unfactored
    rest is 1 or a prime, so the cost is bounded by the second largest
    prime factor of n rather than by n: for the lcm of orbit sizes up to
    m, that is at most m steps.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"{n!r} is not a positive integer")
    out = [1]
    p = 2
    while p * p <= n:
        if n % p == 0:
            power = 1
            powers = []
            while n % p == 0:
                n //= p
                power *= p
                powers.append(power)
            out += [d * q for d in out for q in powers]
        p += 1
    if n > 1:
        out += [d * n for d in out]
    return sorted(out)


def is_prime_power(q: int) -> bool:
    """Whether q = p^k for a prime p and k >= 1: the sizes of finite fields."""
    if q < 2:
        return False
    p = 2
    while p * p <= q:
        if q % p == 0:
            while q % p == 0:
                q //= p
            return q == 1
        p += 1
    return True
