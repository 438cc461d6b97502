"""The subring of the symmetric-group Burnside ring spanned by classes of
disjoint-subset tuple sets.

For a partition mu of n, ``P_mu`` denotes the set of tuples of pairwise
disjoint subsets of {1..n} with block sizes mu; since the blocks exhaust
the n points, these are ordered set partitions.  A tuple set with blocks
covering only part of {1..n} is isomorphic to the one padded with the
complement as an extra block, so the ``[P_mu]`` over partitions of n span
every tuple-set class.

An element is stored in basis coordinates, an integer combination of
``[P_mu]``: its nonzero (mu, c) pairs in the order of partitions(n), one
canonical form.  Its ghost coordinates, the fixed-point counts under one
permutation per cycle type of n (the marks), are derived on demand, one
cycle type at a time: the mark of ``[P_mu]`` at cycle type lam counts the
ways to fill the blocks of mu with the cycles of lam.

An element given by its marks, such as an alternating power of the
standard set, is pulled back to basis coordinates against the mark
matrix, which is triangular: the mark of ``[P_mu]`` at lam is zero unless
lam refines mu, and the diagonal has no zero, which certifies that the
spanning classes are linearly independent.  The solve is forward
substitution on integers; a remainder means the marks cannot come from a
real element of the subring and raises ArithmeticError.

SchurElement and MarkMatrix each have one constructor, which checks its
input.  The module backs the lambda, rho and marks commands; the
unit-torus routes compute in their own algebras and do not use it.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cache
from typing import Mapping

from .combinatorics import (
    Partition, _check_positive, _Immutable, _join, invariant_multiset_counts, partitions
)

# Building the mark matrix takes p(n)^2 fixed-point counts, so n is capped
# to keep table sizes sane.
DEGREE_BOUND = 16


def _check_degree(n) -> None:
    if isinstance(n, bool) or not isinstance(n, int) or not 1 <= n <= DEGREE_BOUND:
        raise ValueError(f"n={n!r} outside supported range 1..{DEGREE_BOUND}")


def _check_partition(n: int, lam) -> Partition:
    lam = tuple(lam)
    for p in lam:
        _check_positive("part", p)
    if sum(lam) != n:
        raise ValueError(f"{lam!r} is not a partition of {n}")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"{lam!r} is not weakly decreasing")
    return lam


@cache
def _assignments(cycles: tuple[int, ...], caps: tuple[int, ...]) -> int:
    """Ways to assign each cycle length to one block so that the block
    capacities are filled exactly.

    cycles is weakly decreasing; caps is canonical (sorted descending, no
    zeros).  The count does not depend on the order of the blocks, so
    blocks of equal capacity are taken once, times their number.
    """
    if not cycles:
        return 1 if not caps else 0
    first, rest = cycles[0], cycles[1:]
    total = 0
    for j, cap in enumerate(caps):
        if cap < first:
            break
        if j and caps[j - 1] == cap:
            continue
        left = caps[:j] + caps[j + 1 :] + ((cap - first,) if cap > first else ())
        total += caps.count(cap) * _assignments(rest, tuple(sorted(left, reverse=True)))
    return total


class MarkMatrix(_Immutable):
    """Fixed-point counts of the tuple sets, rows by block partition mu and
    columns by cycle type lam, both in lex-descending order.  An entry is
    zero unless lam refines mu, so the matrix is upper triangular."""

    __slots__ = ("n", "index", "entries")

    def __init__(self, n: int):
        _check_degree(n)
        index = tuple(partitions(n))
        entries = tuple(tuple(_assignments(lam, mu) for lam in index) for mu in index)
        if any(entries[i][i] == 0 for i in range(len(index))):
            raise ArithmeticError("mark matrix is singular; tuple classes are not independent")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "entries", entries)

    def basis_from_marks(self, marks: Mapping[Partition, int]) -> dict[Partition, int]:
        """Solve marks[lam] = sum_mu coeff[mu] * entries[mu][lam] by forward
        substitution: the equation at the j-th cycle type involves only the
        first j + 1 coefficients, so it yields the j-th.  Zeros are kept;
        the SchurElement built from the result drops them."""
        coeffs = []
        for j, p in enumerate(self.index):
            rest = marks[p] - sum(c * self.entries[i][j] for i, c in enumerate(coeffs) if c)
            c, remainder = divmod(rest, self.entries[j][j])
            if remainder:
                raise ArithmeticError(
                    f"mark vector does not lie on the tuple-class lattice "
                    f"(coefficient of {p} is {rest}/{self.entries[j][j]})"
                )
            coeffs.append(c)
        return dict(zip(self.index, coeffs))

    def __repr__(self) -> str:
        return f"MarkMatrix(n={self.n})"


@cache
def mark_matrix(n: int) -> MarkMatrix:
    return MarkMatrix(n)


class SchurElement(_Immutable):
    """An element of the tuple-class subring of the degree-n symmetric
    group's Burnside ring, stored as its canonical basis pairs."""

    __slots__ = ("n", "_basis")

    def __init__(self, n: int, basis: Mapping[Partition, int]):
        _check_degree(n)
        clean = {}
        for mu, c in basis.items():
            mu = _check_partition(n, mu)
            if isinstance(c, bool) or not isinstance(c, int):
                raise ValueError(f"coefficient {c!r} must be an integer")
            if c != 0:
                clean[mu] = c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_basis", tuple(sorted(clean.items(), reverse=True)))

    @classmethod
    def from_basis(cls, n: int, basis: Mapping[Partition, int]) -> "SchurElement":
        return cls(n, basis)

    @classmethod
    def from_marks(cls, n: int, marks: Mapping[Partition, int]) -> "SchurElement":
        matrix = mark_matrix(n)
        for lam in matrix.index:
            if lam not in marks:
                raise ValueError(f"mark vector is missing cycle type {lam}")
        return cls(n, matrix.basis_from_marks(marks))

    @property
    def basis(self) -> dict[Partition, int]:
        return dict(self._basis)

    @property
    def marks(self) -> dict[Partition, int]:
        """Every mark, by cycle type in lex-descending order."""
        return {lam: self._mark(lam) for lam in partitions(self.n)}

    def _mark(self, lam: Partition) -> int:
        return sum(c * _assignments(lam, mu) for mu, c in self._basis)

    def mark(self, lam) -> int:
        """Fixed points under one permutation of the given cycle type."""
        return self._mark(_check_partition(self.n, lam))

    @property
    def cardinality(self) -> int:
        """The mark at the identity: the virtual size of the set."""
        return self._mark((1,) * self.n)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "basis": {",".join(map(str, mu)): c for mu, c in self._basis},
            "marks": {",".join(map(str, lam)): v for lam, v in self.marks.items()},
        }

    def __str__(self) -> str:
        return _join([(c, f"{abs(c)}·[P_({','.join(map(str, mu))})]") for mu, c in self._basis])

    def __repr__(self) -> str:
        return f"SchurElement(n={self.n}, basis={self.basis!r})"


def torus_coefficient(n: int, i: int) -> SchurElement:
    """The universal degree-n coefficient of weight i: the alternating sum
    of tuple-set classes over all compositions of i, signed by tuple length.

    The compositions that sort to a partition kappa of i all give the
    class of kappa padded with n - i, so the sum runs over partitions,
    each weighted by its number of orderings, len(kappa)! / prod m_j!.

    Restricting it along a choice of generator yields the coefficient of
    L^(n-i) in the class of the unit torus.
    """
    _check_degree(n)
    if not 1 <= i <= n:
        raise ValueError(f"need 1 <= i <= n, got i={i}, n={n}")
    basis: dict[Partition, int] = {}
    for kappa in partitions(i):
        orderings = math.factorial(len(kappa))
        for m in Counter(kappa).values():
            orderings //= math.factorial(m)
        mu = kappa if i == n else tuple(sorted(kappa + (n - i,), reverse=True))
        basis[mu] = basis.get(mu, 0) + (-1) ** len(kappa) * orderings
    return SchurElement(n, basis)


def lambda_standard(n: int, i: int) -> SchurElement:
    """The i-th alternating power of the class of the standard n-point set.

    Computed in ghost coordinates: (-1)^i lambda^i(x) = sigma^i(-x), so
    the mark at cycle type lam is (-1)^i times the number of invariant
    i-multisets of the virtual set with every cycle of lam negated.  The
    result is pulled back to the partition basis by the exact solve,
    whose integrality is asserted.
    """
    _check_degree(n)
    if not 0 <= i <= n:
        raise ValueError(f"need 0 <= i <= n, got i={i}, n={n}")
    sign = -1 if i % 2 else 1
    marks = {}
    for lam in partitions(n):
        opposite = {c: -m for c, m in Counter(lam).items()}
        marks[lam] = sign * invariant_multiset_counts(opposite, i)[i]
    return SchurElement.from_marks(n, marks)
