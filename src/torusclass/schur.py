"""The subring of the symmetric-group Burnside ring spanned by classes of
disjoint-subset tuple sets.

For a partition mu of n, ``P_mu`` denotes the set of tuples of pairwise
disjoint subsets of {1..n} with block sizes mu; since the blocks exhaust
the n points, these are ordered set partitions.  A tuple set with blocks
covering only part of {1..n} is isomorphic to the one padded with the
complement as an extra block, so the ``[P_mu]`` over partitions of n span
every tuple-set class.

An element is stored in basis coordinates, an integer combination of
``[P_mu]``.  Its ghost coordinates, the fixed-point counts under one
permutation per cycle type of n (the marks), are derived on demand, one
cycle type at a time: the mark of ``[P_mu]`` at cycle type lam counts the
ways to fill the blocks of mu with the cycles of lam.

Multiplication is pointwise on marks.  Results are pulled back to basis
coordinates against the mark matrix, which is triangular: the mark of
``[P_mu]`` at lam is zero unless lam refines mu, and the diagonal has no
zero, which certifies that the spanning classes are linearly independent.
The solve is forward substitution on integers; a remainder means the
marks cannot come from a real element of the subring and raises
ArithmeticError.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cache
from typing import Mapping

from .combinatorics import Composition, Partition, divisors, partitions, power_cycle_type
from .cyclic import CyclicBurnside
from .series import invariant_multiset_counts, lambda_from_sigma

# Building the mark matrix takes p(n)^2 fixed-point counts, so n is capped
# to keep table sizes sane.
DEGREE_BOUND = 16


def _check_degree(n) -> None:
    if isinstance(n, bool) or not isinstance(n, int) or not 1 <= n <= DEGREE_BOUND:
        raise ValueError(f"n={n!r} outside supported range 1..{DEGREE_BOUND}")


def _check_partition(n: int, lam) -> Partition:
    lam = tuple(lam)
    if sum(lam) != n or any(p < 1 for p in lam):
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


class MarkMatrix:
    """Fixed-point counts of the tuple sets, rows by block partition mu and
    columns by cycle type lam, both in lex-descending order.  An entry is
    zero unless lam refines mu, so the matrix is upper triangular."""

    __slots__ = ("n", "index", "entries", "_position")

    def __init__(self, n: int):
        index = tuple(partitions(n))
        entries = tuple(
            tuple(_assignments(lam, mu) for lam in index) for mu in index
        )
        if any(entries[i][i] == 0 for i in range(len(index))):
            raise ArithmeticError("mark matrix is singular; tuple classes are not independent")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_position", {p: i for i, p in enumerate(index)})

    def __setattr__(self, name, value):
        raise AttributeError("MarkMatrix is immutable")

    def entry(self, mu: Partition, lam: Partition) -> int:
        return self.entries[self._position[mu]][self._position[lam]]

    def basis_from_marks(self, marks: Mapping[Partition, int]) -> dict[Partition, int]:
        """Solve marks[lam] = sum_mu coeff[mu] * entries[mu][lam] by forward
        substitution: the equation at the j-th cycle type involves only the
        first j + 1 coefficients, so it yields the j-th."""
        coeffs = []
        out = {}
        for j, p in enumerate(self.index):
            rest = marks[p] - sum(c * self.entries[i][j] for i, c in enumerate(coeffs) if c)
            c, remainder = divmod(rest, self.entries[j][j])
            if remainder:
                raise ArithmeticError(
                    f"mark vector does not lie on the tuple-class lattice "
                    f"(coefficient of {p} is {rest}/{self.entries[j][j]})"
                )
            coeffs.append(c)
            if c:
                out[p] = c
        return out

    def __repr__(self) -> str:
        return f"MarkMatrix(n={self.n})"


@cache
def mark_matrix(n: int) -> MarkMatrix:
    _check_degree(n)
    return MarkMatrix(n)


class SchurElement:
    """An element of the tuple-class subring of the degree-n symmetric
    group's Burnside ring, stored in basis coordinates."""

    __slots__ = ("n", "_basis")

    def __init__(self, n: int, basis: dict[Partition, int]):
        # internal: callers go through from_basis / from_marks
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_basis", basis)

    def __setattr__(self, name, value):
        raise AttributeError("SchurElement is immutable")

    @classmethod
    def from_basis(cls, n: int, basis: Mapping[Partition, int]) -> "SchurElement":
        _check_degree(n)
        clean = {}
        for mu, c in basis.items():
            mu = _check_partition(n, mu)
            if isinstance(c, bool) or not isinstance(c, int):
                raise ValueError(f"coefficient {c!r} must be an integer")
            if c != 0:
                clean[mu] = c
        return cls(n, clean)

    @classmethod
    def from_marks(cls, n: int, marks: Mapping[Partition, int]) -> "SchurElement":
        _check_degree(n)
        matrix = mark_matrix(n)
        for lam in matrix.index:
            if lam not in marks:
                raise ValueError(f"mark vector is missing cycle type {lam}")
        return cls(n, matrix.basis_from_marks(marks))

    @classmethod
    def zero(cls, n: int) -> "SchurElement":
        return cls.from_basis(n, {})

    @classmethod
    def unit(cls, n: int) -> "SchurElement":
        """The one-point tuple set (the whole of {1..n} as a single block)."""
        return cls.from_basis(n, {(n,): 1})

    @property
    def basis(self) -> dict[Partition, int]:
        return dict(self._basis)

    @property
    def marks(self) -> dict[Partition, int]:
        """Every mark, by cycle type in lex-descending order."""
        return {lam: self._mark(lam) for lam in partitions(self.n)}

    def _mark(self, lam: Partition) -> int:
        return sum(c * _assignments(lam, mu) for mu, c in self._basis.items())

    def mark(self, lam) -> int:
        """Fixed points under one permutation of the given cycle type."""
        return self._mark(_check_partition(self.n, lam))

    @property
    def cardinality(self) -> int:
        """The mark at the identity: the virtual size of the set."""
        return self._mark((1,) * self.n)

    def _coerce(self, other) -> "SchurElement":
        if isinstance(other, SchurElement):
            if other.n != self.n:
                raise ValueError("degree mismatch")
            return other
        if isinstance(other, int) and not isinstance(other, bool):
            return SchurElement.from_basis(self.n, {(self.n,): other})
        return NotImplemented

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = self._coerce(other)
        if not isinstance(other, SchurElement):
            return NotImplemented
        return self.n == other.n and self._basis == other._basis

    def __hash__(self) -> int:
        return hash((self.n, tuple(sorted(self._basis.items()))))

    def __add__(self, other) -> "SchurElement":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        basis = dict(self._basis)
        for mu, c in other._basis.items():
            basis[mu] = basis.get(mu, 0) + c
        return SchurElement(self.n, {mu: c for mu, c in basis.items() if c != 0})

    __radd__ = __add__

    def __neg__(self) -> "SchurElement":
        return SchurElement(self.n, {mu: -c for mu, c in self._basis.items()})

    def __sub__(self, other) -> "SchurElement":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "SchurElement":
        if isinstance(other, int) and not isinstance(other, bool):
            return SchurElement(
                self.n, {mu: other * c for mu, c in self._basis.items() if other * c != 0}
            )
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # multiplication is pointwise on ghost coordinates; pull the result
        # back to the basis, which certifies closure
        theirs = other.marks
        marks = {lam: v * theirs[lam] for lam, v in self.marks.items()}
        return SchurElement.from_marks(self.n, marks)

    __rmul__ = __mul__

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "basis": {
                ",".join(map(str, mu)): self._basis[mu]
                for mu in partitions(self.n)
                if mu in self._basis
            },
            "marks": {",".join(map(str, lam)): v for lam, v in self.marks.items()},
        }

    def __str__(self) -> str:
        if not self._basis:
            return "0"
        parts = []
        for mu in partitions(self.n):
            if mu not in self._basis:
                continue
            c = self._basis[mu]
            name = f"[P_({','.join(map(str, mu))})]"
            if not parts:
                parts.append(f"{c}·{name}")
            elif c < 0:
                parts.append(f"- {-c}·{name}")
            else:
                parts.append(f"+ {c}·{name}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"SchurElement(n={self.n}, basis={self._basis!r})"


def tuple_set_class(n: int, alpha: Composition) -> SchurElement:
    """Class of the set of disjoint-subset tuples with sizes alpha inside
    an n-set, on the partition basis.

    The tuple order is immaterial up to isomorphism and a sub-n tuple is
    isomorphic to its complement-padded one, so the canonical basis key is
    alpha padded with n - sum(alpha) and sorted descending.
    """
    _check_degree(n)
    alpha = tuple(alpha)
    if any(isinstance(p, bool) or not isinstance(p, int) or p < 1 for p in alpha):
        raise ValueError("tuple sizes must be positive integers")
    weight = sum(alpha)
    if weight > n:
        raise ValueError(f"tuple sizes sum to {weight}, exceeding n={n}")
    padded = alpha if weight == n else alpha + (n - weight,)
    mu = tuple(sorted(padded, reverse=True))
    return SchurElement.from_basis(n, {mu: 1})


def torus_coefficient(n: int, i: int) -> SchurElement:
    """The universal degree-n coefficient of weight i: the alternating sum
    of tuple-set classes over all compositions of i, signed by tuple length.

    The compositions that sort to a partition kappa of i all give the
    class of kappa padded with n - i, so the sum runs over partitions,
    each weighted by its number of orderings, len(kappa)! / prod m_j!.

    Restricting it along a choice of generator yields the coefficient of
    L^(n-i) in the class of the unit torus; see restrict_to_cyclic.
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
    return SchurElement.from_basis(n, basis)


def lambda_standard(n: int, i: int) -> SchurElement:
    """The i-th alternating power of the class of the standard n-point set.

    Computed in ghost coordinates: per cycle type, the symmetric-power
    marks are invariant multiset counts, and the alternating-power marks
    follow by the series recursion.  The result is pulled back to the
    partition basis by the exact solve, whose integrality is asserted.
    """
    _check_degree(n)
    if not 0 <= i <= n:
        raise ValueError(f"need 0 <= i <= n, got i={i}, n={n}")
    marks = {}
    for lam in partitions(n):
        sigmas = invariant_multiset_counts(Counter(lam), i)
        marks[lam] = lambda_from_sigma(sigmas)[i]
    return SchurElement.from_marks(n, marks)


def restrict_to_cyclic(x: SchurElement, lam) -> CyclicBurnside:
    """Restriction along the procyclic generator acting with cycle type lam.

    The restricted action has orbit sizes dividing lcm(lam), which can
    exceed n, so marks are taken at every divisor of lcm(lam) before
    inverting.
    """
    lam = _check_partition(x.n, lam)
    return CyclicBurnside.from_marks(
        {d: x.mark(power_cycle_type(lam, d)) for d in divisors(math.lcm(*lam))}
    )
