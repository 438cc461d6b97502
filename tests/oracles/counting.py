"""Counting helpers the tests check the routes with.

Compositions and multinomial counts enumerate the tuple-set bases; the
recursions between sigma and lambda check the lambda route's series;
the cycle types of permutation powers give the restriction to the cyclic
ring.
"""

from __future__ import annotations

import math
from functools import cache
from typing import Sequence

from torusclass.combinatorics import Partition, _check_int

Composition = tuple[int, ...]


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


def lambda_from_sigma(sigmas: Sequence) -> list:
    """Alternating-power coefficients from symmetric-power coefficients,
    by the recursion that the defining identity lambda_{-t} sigma_t = 1
    collapses to:

        sum_{i=0..k} (-1)^i lam[i] * sig[k-i] == 0    for every k >= 1.

    ``sigmas[0]`` must be the ring's one.  It needs only +, - and *, so
    it works over any commutative ring; the tests apply it to integer
    mark sequences and to CyclicBurnside elements.
    """
    sigmas = list(sigmas)
    if not sigmas:
        raise ValueError("need at least the constant symmetric power")
    lams = [sigmas[0]]
    for k in range(1, len(sigmas)):
        acc = lams[0] * sigmas[k]
        for i in range(1, k):
            if i % 2:
                acc = acc - lams[i] * sigmas[k - i]
            else:
                acc = acc + lams[i] * sigmas[k - i]
        lams.append(acc if k % 2 else -acc)
    return lams


def sigma_from_lambda(lams: Sequence) -> list:
    """Inverse of lambda_from_sigma, by the same recursion solved for sig[k]."""
    lams = list(lams)
    if not lams:
        raise ValueError("need at least the constant alternating power")
    one = lams[0]
    sigs = [one]
    for k in range(1, len(lams)):
        acc = None
        for i in range(1, k + 1):
            term = lams[i] * sigs[k - i]
            if i % 2 == 0:
                term = one - one - term
            acc = term if acc is None else acc + term
        sigs.append(acc)
    return sigs


def power_cycle_type(lam: Partition, e: int) -> Partition:
    """Cycle type of the e-th power of a permutation of cycle type lam.

    A cycle of length c falls apart into gcd(c, e) cycles of length
    c / gcd(c, e).
    """
    _check_int("e", e, 1)
    for c in lam:
        _check_int("part", c, 1)
    out: list[int] = []
    for c in lam:
        g = math.gcd(c, e)
        out.extend([c // g] * g)
    return tuple(sorted(out, reverse=True))
