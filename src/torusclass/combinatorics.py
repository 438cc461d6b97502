"""Partitions, cycle-type powers, divisors and prime powers, and the
checks and immutable base that the value classes share.

Partitions are enumerated in lexicographic descending order so that basis
indexing, JSON output, and cache keys are reproducible across runs.
"""

from __future__ import annotations

import math
from functools import cache

Composition = tuple[int, ...]
Partition = tuple[int, ...]


class _Immutable:
    """Base of the value classes, whose hashes and memo tables rely on
    attributes that never change: __init__ sets them with
    object.__setattr__, and assignment and deletion are refused.  Its
    empty __slots__ keeps a slotted subclass free of a __dict__."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __setstate__(self, state):
        # copy and pickle hand back a __dict__, or a (__dict__ or None,
        # slots) pair, which plain assignment would refuse
        attrs, slots = state if isinstance(state, tuple) else (state, None)
        for name, value in {**(attrs or {}), **(slots or {})}.items():
            object.__setattr__(self, name, value)


def _check_positive(name: str, value) -> None:
    """Reject anything but a positive int; a bool is not an int here."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{name}={value!r} is not a positive integer")


def _check_nonnegative(name: str, value) -> None:
    """Reject anything but an int >= 0, such as a count or a truncation."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"{name}={value!r} is not a nonnegative integer")


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


def power_cycle_type(lam: Partition, e: int) -> Partition:
    """Cycle type of the e-th power of a permutation of cycle type lam.

    A cycle of length c falls apart into gcd(c, e) cycles of length
    c / gcd(c, e).
    """
    _check_positive("e", e)
    for c in lam:
        _check_positive("part", c)
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
    _check_positive("n", n)
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
    if isinstance(q, bool) or not isinstance(q, int) or q < 2:
        return False
    p = 2
    while p * p <= q:
        if q % p == 0:
            while q % p == 0:
                q //= p
            return q == 1
        p += 1
    return True
