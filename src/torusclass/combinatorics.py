"""Partitions and their spelling, divisors and prime powers, invariant
multiset counts, the signed-sum printer, the integer check and immutable
base that the value classes share, and OutsideDomain, which a computation
raises for an input past its declared domain.

Partitions are enumerated in lexicographic descending order so that basis
indexing, JSON output, and cache keys are reproducible across runs.
"""

from __future__ import annotations

import math
from functools import cache
from typing import Mapping

Partition = tuple[int, ...]


class _Immutable:
    """Base of the value classes, whose hashes and memo tables rely on
    attributes that never change: __init__ sets them with
    object.__setattr__, and assignment and deletion are refused.  Each
    value class is slotted, and its slots are its value: it equals an
    instance of its class with equal slots, and hashes as their tuple (a
    class with a dict in its slots overrides __hash__).  The base's empty
    __slots__ adds no __dict__."""

    __slots__ = ()

    def _slot_values(self) -> tuple:
        # every slot along the MRO, so a subclass with empty slots compares too
        slots = (s for c in type(self).__mro__ for s in getattr(c, "__slots__", ()))
        return tuple(getattr(self, s) for s in slots)

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._slot_values() == other._slot_values()

    def __hash__(self) -> int:
        return hash(self._slot_values())

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __setstate__(self, state):
        # copy and pickle hand back a (None, slots) pair, which plain
        # assignment would refuse
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


def _check_int(name: str, value, low: int | None = None) -> None:
    """Reject anything but an int, and one below low when low is given; a
    bool is not an int here."""
    if isinstance(value, bool) or not isinstance(value, int) or (low is not None and value < low):
        floor = "" if low is None else f" >= {low}"
        raise ValueError(f"{name}={value!r} is not an integer{floor}")


def partitions(n: int) -> list[Partition]:
    """Weakly decreasing tuples of positive integers summing to n.

    Lexicographic descending order: partitions(4) starts at (4,) and ends
    at (1, 1, 1, 1).
    """
    _check_int("n", n, 0)
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


def _prime_powers(n: int):
    """(p, k) for each p^k exactly dividing n, ascending in p, by trial division
    up to the unfactored rest's square root; lazy, so the first pair takes < p steps."""
    p = 2
    while p * p <= n:
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            yield p, k
        p += 1
    if n > 1:
        yield n, 1


class OutsideDomain(ValueError):
    """A computation was asked for an input outside the domain it handles;
    the message is the reason, such as "mark DP estimate 354,512,640 >
    10,000,000"."""


def divisors(*orders: int, most: int | None = None) -> list[int]:
    """The positive divisors of the lcm of orders, ascending; divisors() is
    [1].  Each distinct order is factored on its own, and each prime keeps
    its highest power, so the lcm itself is never factored.  With most
    given, more divisors than that raise OutsideDomain before any is listed."""
    for n in orders:
        _check_int("n", n, 1)
    exponents: dict[int, int] = {}
    for n in set(orders):
        for p, k in _prime_powers(n):
            if k > exponents.get(p, 0):
                exponents[p] = k
    if most is not None and (count := math.prod([k + 1 for k in exponents.values()])) > most:
        raise OutsideDomain(f"{count:,} divisors > {most:,}")
    out = [1]
    for p, k in exponents.items():
        out += [d * p**j for d in out for j in range(1, k + 1)]
    return sorted(out)


def invariant_multiset_counts(cycles: Mapping[int, int], truncation: int) -> list[int]:
    """Number of k-multisets invariant under a permutation, for
    k = 0..truncation, where ``cycles`` maps each cycle length to its
    signed multiplicity.

    An invariant multiset has constant multiplicity along each cycle, so
    the counting series is the product of (1 - x^c)^(-m) over cycle
    lengths c of multiplicity m.  It is applied one factor at a time: a
    real cycle divides by (1 - x^c), an ascending prefix-sum pass, and a
    virtual cycle (m < 0) multiplies by (1 - x^c), a descending
    difference pass.  Each pass costs O(truncation), and no series
    division is needed.
    """
    counts = [1] + [0] * truncation
    for length, mult in cycles.items():
        if mult > 0:
            for _ in range(mult):
                for k in range(length, truncation + 1):
                    counts[k] += counts[k - length]
        else:
            for _ in range(-mult):
                for k in range(truncation, length - 1, -1):
                    counts[k] -= counts[k - length]
    return counts


def _partition_text(parts: Partition) -> str:
    """A partition as every output writes it, and AlgebraSpec.parse reads it: "4,2,1"."""
    return ",".join(map(str, parts))


def _join(pieces: list[tuple[int, str]], lead: bool = True) -> str:
    """The signed sum "a - b + c" of (sign, body) pieces, where the sign is
    that of a nonzero int such as the coefficient; "0" for no pieces.  With
    lead false, the rest of a sum already begun: " + a - b + c", or "" for none."""
    out = []
    for sign, body in pieces:
        if out or not lead:
            out.append(f" + {body}" if sign > 0 else f" - {body}")
        else:
            out.append(body if sign > 0 else f"-{body}")
    return "".join(out) or ("0" if lead else "")


def is_prime_power(q: int) -> bool:
    """Whether q = p^k for a prime p and k >= 1: the sizes of finite fields."""
    if isinstance(q, bool) or not isinstance(q, int) or q < 2:
        return False
    p, k = next(_prime_powers(q))
    return p**k == q
