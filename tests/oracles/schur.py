"""The Schur ring's arithmetic, tuple-set classes and restriction to the
cyclic ring: what the tests check the rho route and the Schur commands
with.  No command computes with it.  In ``Ring`` a product is pointwise on
marks, pulled back by the exact solve of ``SchurElement.from_marks``,
which certifies closure, and an int stands for that multiple of the unit.
"""

from __future__ import annotations

import math
from collections import Counter

from torusclass.combinatorics import _check_int, divisors, partitions
from torusclass.cyclic import CyclicBurnside
from torusclass.schur import SchurElement, _check_partition, mark_matrix

from .counting import power_cycle_type
from .cyclic import from_mark_list


class Ring(SchurElement):
    __slots__ = ()

    @classmethod
    def zero(cls, n: int) -> "Ring":
        return cls(n, {})

    @classmethod
    def unit(cls, n: int) -> "Ring":
        """The one-point tuple set (the whole of {1..n} as a single block)."""
        return cls(n, {(n,): 1})

    def _coerce(self, other) -> "Ring":
        if isinstance(other, SchurElement):
            if other.n != self.n:
                raise ValueError("degree mismatch")
            return Ring(other.n, other.basis)
        if isinstance(other, int) and not isinstance(other, bool):
            return Ring(self.n, {(self.n,): other})
        return NotImplemented

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = self._coerce(other)
        return super().__eq__(other)

    def __hash__(self) -> int:
        # an element equal to an int, a multiple of the unit, hashes like it
        basis = self.basis
        if basis.keys() <= {(self.n,)}:
            return hash(basis.get((self.n,), 0))
        return super().__hash__()

    def __add__(self, other) -> "Ring":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        basis = Counter(self.basis)
        basis.update(other.basis)
        return Ring(self.n, basis)

    __radd__ = __add__

    def __neg__(self) -> "Ring":
        return Ring(self.n, {mu: -c for mu, c in self.basis.items()})

    def __sub__(self, other) -> "Ring":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "Ring":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        theirs = other.marks
        return Ring.from_marks(self.n, {lam: v * theirs[lam] for lam, v in self.marks.items()})

    __rmul__ = __mul__


def entry(n: int, mu, lam) -> int:
    """The mark of the tuple set with blocks mu at cycle type lam, read off
    the rows of mark_matrix(n)."""
    index = partitions(n)
    return mark_matrix(n)[index.index(mu)][index.index(lam)]


def tuple_set_class(n: int, alpha) -> Ring:
    """Class of the disjoint-subset tuples with sizes alpha inside an
    n-set.  The tuple order is immaterial up to isomorphism and a sub-n
    tuple is isomorphic to its complement-padded one, so the basis key is
    alpha padded with n - sum(alpha) and sorted descending."""
    alpha = tuple(alpha)
    for p in alpha:
        _check_int("tuple size", p, 1)
    weight = sum(alpha)
    if weight > n:
        raise ValueError(f"tuple sizes sum to {weight}, exceeding n={n}")
    padded = alpha if weight == n else alpha + (n - weight,)
    return Ring(n, {tuple(sorted(padded, reverse=True)): 1})


def restrict(x: SchurElement, lam) -> CyclicBurnside:
    """Restriction along the procyclic generator acting with cycle type lam:
    its mark at each divisor d of lcm(lam), which can exceed n, is x's mark
    at the cycle type of the d-th power, taken once per distinct type."""
    lam = _check_partition(x.n, lam)
    divs = divisors(math.lcm(*lam))
    types = [power_cycle_type(lam, d) for d in divs]
    marks = {t: x._mark(t) for t in dict.fromkeys(types)}
    return from_mark_list(divs, [marks[t] for t in types])
