"""The subring of the symmetric-group Burnside ring spanned by classes of
disjoint-subset tuple sets.

For a partition mu of n, ``P_mu`` denotes the set of tuples of pairwise
disjoint subsets of {1..n} with block sizes mu; since the blocks exhaust
the n points, these are ordered set partitions.  A tuple set with blocks
covering only part of {1..n} is isomorphic to the one padded with the
complement as an extra block, so the ``[P_mu]`` over partitions of n span
every tuple-set class.

Every element is held in two coordinate systems at once:

* basis coordinates: an integer combination of ``[P_mu]``;
* ghost coordinates: the mark vector, i.e. the fixed-point count under
  one permutation per cycle type of n.

Ring arithmetic happens on mark vectors, where multiplication is
pointwise.  Results are pulled back to basis coordinates by an exact
rational solve against the mark matrix; the matrix is inverted over the
rationals once per n, which also certifies that the spanning classes are
linearly independent.  A non-integral solution cannot come from a real
element of the subring and raises ArithmeticError.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import cache
from typing import Mapping

from .combinatorics import (
    Composition,
    Partition,
    compositions,
    divisors,
    multinomial,
    partitions,
    power_cycle_type,
)
from .cyclic import CyclicBurnside
from .series import invariant_multiset_counts, lambda_from_sigma

# Everything in this module materializes data indexed by partitions of n,
# so n is capped to keep table sizes sane.
DEGREE_BOUND = 10


def _check_partition(n: int, lam) -> Partition:
    lam = tuple(lam)
    if sum(lam) != n or any(p < 1 for p in lam):
        raise ValueError(f"{lam!r} is not a partition of {n}")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"{lam!r} is not weakly decreasing")
    return lam


@cache
def _assignments(cycles: tuple[int, ...], caps: tuple[int, ...]) -> int:
    """Ways to assign each cycle length to one block position so that the
    block capacities are filled exactly."""
    if not cycles:
        return 1 if all(c == 0 for c in caps) else 0
    first, rest = cycles[0], cycles[1:]
    total = 0
    for j, cap in enumerate(caps):
        if cap >= first:
            total += _assignments(rest, caps[:j] + (cap - first,) + caps[j + 1 :])
    return total


def _invert_exact(rows: list[list[Fraction]]) -> tuple[tuple[Fraction, ...], ...]:
    """Inverse of a square rational matrix by Gauss-Jordan elimination."""
    size = len(rows)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(size)] for i, row in enumerate(rows)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if aug[r][col] != 0), None)
        if pivot is None:
            raise ArithmeticError("mark matrix is singular; tuple classes are not independent")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(size):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return tuple(tuple(row[size:]) for row in aug)


class MarkMatrix:
    """Fixed-point counts of the tuple sets, rows by block partition mu and
    columns by cycle type lam, together with the exact inverse used to
    recover basis coordinates from mark vectors."""

    __slots__ = ("n", "index", "entries", "_position", "_inverse")

    def __init__(self, n: int):
        index = tuple(partitions(n))
        entries = tuple(
            tuple(_assignments(lam, mu) for lam in index) for mu in index
        )
        # solve marks[lam] = sum_mu coeff[mu] * entries[mu][lam]: invert the
        # transpose once, exactly
        transpose = [
            [Fraction(entries[mu_i][lam_i]) for mu_i in range(len(index))]
            for lam_i in range(len(index))
        ]
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_position", {p: i for i, p in enumerate(index)})
        object.__setattr__(self, "_inverse", _invert_exact(transpose))

    def __setattr__(self, name, value):
        raise AttributeError("MarkMatrix is immutable")

    def entry(self, mu: Partition, lam: Partition) -> int:
        return self.entries[self._position[mu]][self._position[lam]]

    def marks_from_basis(self, basis: Mapping[Partition, int]) -> dict[Partition, int]:
        out = {}
        for lam_i, lam in enumerate(self.index):
            out[lam] = sum(c * self.entries[self._position[mu]][lam_i] for mu, c in basis.items())
        return out

    def basis_from_marks(self, marks: Mapping[Partition, int]) -> dict[Partition, int]:
        vector = [marks[lam] for lam in self.index]
        out = {}
        for mu_i, mu in enumerate(self.index):
            value = sum(self._inverse[mu_i][lam_i] * vector[lam_i] for lam_i in range(len(self.index)))
            if value.denominator != 1:
                raise ArithmeticError(
                    f"mark vector does not lie on the tuple-class lattice (coefficient of {mu} is {value})"
                )
            if value != 0:
                out[mu] = int(value)
        return out

    def __repr__(self) -> str:
        return f"MarkMatrix(n={self.n})"


@cache
def mark_matrix(n: int) -> MarkMatrix:
    if not 1 <= n <= DEGREE_BOUND:
        raise ValueError(f"n={n} outside supported range 1..{DEGREE_BOUND}")
    return MarkMatrix(n)


class SchurElement:
    """An element of the tuple-class subring of the degree-n symmetric
    group's Burnside ring, stored in basis and ghost coordinates."""

    __slots__ = ("n", "_basis", "_marks")

    def __init__(self, n: int, basis: dict[Partition, int], marks: dict[Partition, int]):
        # internal: callers go through from_basis / from_marks
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_basis", basis)
        object.__setattr__(self, "_marks", marks)

    def __setattr__(self, name, value):
        raise AttributeError("SchurElement is immutable")

    @classmethod
    def from_basis(cls, n: int, basis: Mapping[Partition, int]) -> "SchurElement":
        matrix = mark_matrix(n)
        clean = {}
        for mu, c in basis.items():
            mu = _check_partition(n, mu)
            if isinstance(c, bool) or not isinstance(c, int):
                raise ValueError(f"coefficient {c!r} must be an integer")
            if c != 0:
                clean[mu] = c
        return cls(n, clean, matrix.marks_from_basis(clean))

    @classmethod
    def from_marks(cls, n: int, marks: Mapping[Partition, int]) -> "SchurElement":
        matrix = mark_matrix(n)
        vector = {}
        for lam in matrix.index:
            if lam not in marks:
                raise ValueError(f"mark vector is missing cycle type {lam}")
            vector[lam] = marks[lam]
        return cls(n, matrix.basis_from_marks(vector), vector)

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
        return dict(self._marks)

    def mark(self, lam) -> int:
        """Fixed points under one permutation of the given cycle type."""
        return self._marks[_check_partition(self.n, lam)]

    @property
    def cardinality(self) -> int:
        """The mark at the identity: the virtual size of the set."""
        return self._marks[(1,) * self.n]

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
        basis = {mu: c for mu, c in basis.items() if c != 0}
        marks = {lam: self._marks[lam] + other._marks[lam] for lam in self._marks}
        return SchurElement(self.n, basis, marks)

    __radd__ = __add__

    def __neg__(self) -> "SchurElement":
        return SchurElement(
            self.n,
            {mu: -c for mu, c in self._basis.items()},
            {lam: -v for lam, v in self._marks.items()},
        )

    def __sub__(self, other) -> "SchurElement":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "SchurElement":
        if isinstance(other, int) and not isinstance(other, bool):
            basis = {mu: other * c for mu, c in self._basis.items() if other * c != 0}
            marks = {lam: other * v for lam, v in self._marks.items()}
            return SchurElement(self.n, basis, marks)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # multiplication is pointwise on ghost coordinates; pull the result
        # back to the basis, which certifies closure
        marks = {lam: self._marks[lam] * other._marks[lam] for lam in self._marks}
        return SchurElement.from_marks(self.n, marks)

    __rmul__ = __mul__

    def to_json(self) -> dict:
        matrix = mark_matrix(self.n)
        return {
            "n": self.n,
            "basis": {
                ",".join(map(str, mu)): self._basis[mu]
                for mu in matrix.index
                if mu in self._basis
            },
            "marks": {",".join(map(str, lam)): self._marks[lam] for lam in matrix.index},
        }

    def __str__(self) -> str:
        if not self._basis:
            return "0"
        parts = []
        for mu in mark_matrix(self.n).index:
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

    Restricting it along a choice of generator yields the coefficient of
    L^(n-i) in the class of the unit torus; see restrict_to_cyclic.
    """
    if not 1 <= i <= n:
        raise ValueError(f"need 1 <= i <= n, got i={i}, n={n}")
    basis: dict[Partition, int] = {}
    for comp in compositions(i):
        padded = comp if i == n else comp + (n - i,)
        mu = tuple(sorted(padded, reverse=True))
        sign = -1 if len(comp) % 2 == 1 else 1
        basis[mu] = basis.get(mu, 0) + sign
    return SchurElement.from_basis(n, basis)


def lambda_standard(n: int, i: int) -> SchurElement:
    """The i-th alternating power of the class of the standard n-point set.

    Computed in ghost coordinates: per cycle type, the symmetric-power
    marks are invariant multiset counts, and the alternating-power marks
    follow by the series recursion.  The result is pulled back to the
    partition basis by the exact solve, whose integrality is asserted.
    """
    if not 0 <= i <= n:
        raise ValueError(f"need 0 <= i <= n, got i={i}, n={n}")
    matrix = mark_matrix(n)
    marks = {}
    for lam in matrix.index:
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
