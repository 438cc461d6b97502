"""Exact arithmetic on integer combinations of transitive actions of a
procyclic group.

An element is a finite integer combination of orbit classes ``[k]``, the
transitive action of the group on k points through its distinguished
generator.  The product is forced by the orbit decomposition of a product
of two cycles:

    [a] * [b] = gcd(a, b) * [lcm(a, b)]

Over a finite field with q elements and Frobenius as the generator, ``[k]``
models the class of Spec of the degree-k extension field, and the mark at
e (fixed points of the e-th power of the generator) is the number of
points over the degree-e extension.  This dictionary loses no information
because the acting group is procyclic, so marks separate elements.

Lambda operations are computed one mark at a time.  An element whose
orbit sizes all divide L, and each of its symmetric powers, is fixed by
the L-th power of the generator, so it is determined by its marks at the
divisors of L.  The d-th power of the generator splits the element into
cycles (its base change along d), and the invariant multisets of a
permutation are counted by an integer series, virtual elements included;
alternating powers follow from the integer series recursion at each
divisor.  Nothing is materialized.
"""

from __future__ import annotations

import math
from typing import ItemsView, Mapping

from .combinatorics import divisors
from .series import invariant_multiset_counts, lambda_from_sigma


class CyclicBurnside:
    """Integer combination of orbit classes, keyed by orbit size."""

    __slots__ = ("_coeffs",)

    ZERO: "CyclicBurnside"
    ONE: "CyclicBurnside"

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        clean: dict[int, int] = {}
        if coeffs:
            for k, c in coeffs.items():
                if isinstance(k, bool) or not isinstance(k, int) or k < 1:
                    raise ValueError(f"orbit size {k!r} must be a positive integer")
                if isinstance(c, bool) or not isinstance(c, int):
                    raise ValueError(f"coefficient {c!r} must be an integer")
                if c != 0:
                    clean[k] = c
        object.__setattr__(self, "_coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("CyclicBurnside is immutable")

    @classmethod
    def orbit(cls, k: int) -> "CyclicBurnside":
        """The class of the transitive action on k points."""
        return cls({k: 1})

    @classmethod
    def from_int(cls, m: int) -> "CyclicBurnside":
        return cls({1: m})

    @property
    def coeffs(self) -> dict[int, int]:
        return dict(self._coeffs)

    def terms(self) -> ItemsView[int, int]:
        """Read-only view of the (orbit size, coefficient) pairs, without
        the copy that coeffs makes."""
        return self._coeffs.items()

    def is_zero(self) -> bool:
        return not self._coeffs

    @staticmethod
    def _coerce(value) -> "CyclicBurnside":
        if isinstance(value, CyclicBurnside):
            return value
        if isinstance(value, int) and not isinstance(value, bool):
            return CyclicBurnside.from_int(value)
        return NotImplemented

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._coeffs.items())))

    def __add__(self, other) -> "CyclicBurnside":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._coeffs)
        for k, c in other._coeffs.items():
            out[k] = out.get(k, 0) + c
        return CyclicBurnside(out)

    __radd__ = __add__

    def __neg__(self) -> "CyclicBurnside":
        return CyclicBurnside({k: -c for k, c in self._coeffs.items()})

    def __sub__(self, other) -> "CyclicBurnside":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "CyclicBurnside":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "CyclicBurnside":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[int, int] = {}
        for a, ca in self._coeffs.items():
            for b, cb in other._coeffs.items():
                k = math.lcm(a, b)
                out[k] = out.get(k, 0) + ca * cb * math.gcd(a, b)
        return CyclicBurnside(out)

    __rmul__ = __mul__

    def mark(self, e: int) -> int:
        """Fixed points of the e-th power of the generator: only orbits
        whose size divides e contribute, each with all its points."""
        if e < 1:
            raise ValueError("mark exponent must be positive")
        return sum(k * c for k, c in self._coeffs.items() if e % k == 0)

    @classmethod
    def from_marks(cls, fix: Mapping[int, int]) -> "CyclicBurnside":
        """Recover an element from its marks {d: mark(d)} at exactly the
        divisors d of an order L, the largest key.

        Inverts fix(d) = sum_{k | d} k a_k over the divisors by increasing
        d.  Marks of any element whose orbit sizes divide L round-trip
        exactly; a missing or extra key is rejected, and so is an
        inconsistent vector, which shows up as a non-integral division.
        """
        if not fix:
            raise ValueError("mark vector is empty")
        order = max(fix)
        divs = divisors(order)
        if set(fix) != set(divs):
            missing = sorted(set(divs) - set(fix))
            extra = sorted(set(fix) - set(divs))
            raise ValueError(
                f"marks must be keyed by the divisors of {order}: "
                f"missing {missing}, extra {extra}"
            )
        coeffs: dict[int, int] = {}
        for d in divs:
            num = fix[d] - sum(k * c for k, c in coeffs.items() if d % k == 0)
            if num % d != 0:
                raise ValueError(f"mark vector is inconsistent at exponent {d}")
            if num:
                coeffs[d] = num // d
        return cls(coeffs)

    def induce(self, d: int) -> "CyclicBurnside":
        """Additive induction along the index-d subgroup: [k] -> [d k]."""
        if d < 1:
            raise ValueError("induction index must be positive")
        return CyclicBurnside({d * k: c for k, c in self._coeffs.items()})

    def base_change(self, d: int) -> "CyclicBurnside":
        """Restriction to the index-d subgroup:
        [k] -> gcd(d, k) [k / gcd(d, k)]."""
        if d < 1:
            raise ValueError("restriction index must be positive")
        out: dict[int, int] = {}
        for k, c in self._coeffs.items():
            g = math.gcd(d, k)
            kk = k // g
            out[kk] = out.get(kk, 0) + c * g
        return CyclicBurnside(out)

    def _sigma_marks(self, truncation: int) -> dict[int, list[int]]:
        """Marks of sigma^0..sigma^truncation at each divisor d of the lcm
        of the orbit sizes: the d-th power of the generator acts with the
        cycles of base_change(d), whose invariant multisets are counted."""
        if truncation < 0:
            raise ValueError("truncation must be nonnegative")
        order = math.lcm(*self._coeffs)
        return {
            d: invariant_multiset_counts(self.base_change(d)._coeffs, truncation)
            for d in divisors(order)
        }

    @classmethod
    def _from_mark_series(cls, series: Mapping[int, list[int]]) -> list["CyclicBurnside"]:
        length = len(next(iter(series.values())))
        return [
            cls.from_marks({d: marks[j] for d, marks in series.items()})
            for j in range(length)
        ]

    def sigma_series(self, truncation: int) -> list["CyclicBurnside"]:
        """Symmetric powers sigma^0..sigma^truncation, from their marks."""
        return self._from_mark_series(self._sigma_marks(truncation))

    def lambda_series(self, truncation: int) -> list["CyclicBurnside"]:
        """Alternating powers lambda^0..lambda^truncation, from their marks:
        at each divisor the integer sigma marks are converted by the
        series recursion."""
        return self._from_mark_series(
            {d: lambda_from_sigma(s) for d, s in self._sigma_marks(truncation).items()}
        )

    def lambda_op(self, i: int, truncation: int | None = None) -> "CyclicBurnside":
        """The i-th alternating power, computed through degree
        max(i, truncation)."""
        n = i if truncation is None else truncation
        if not 0 <= i <= n:
            raise ValueError("need 0 <= i <= truncation")
        return self.lambda_series(n)[i]

    def to_json(self) -> dict[str, int]:
        return {str(k): self._coeffs[k] for k in sorted(self._coeffs)}

    @classmethod
    def from_json(cls, obj: Mapping[str, int]) -> "CyclicBurnside":
        return cls({int(k): c for k, c in obj.items()})

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for k in sorted(self._coeffs):
            c = self._coeffs[k]
            if not parts:
                parts.append(f"{c}·[{k}]")
            elif c < 0:
                parts.append(f"- {-c}·[{k}]")
            else:
                parts.append(f"+ {c}·[{k}]")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"CyclicBurnside({self._coeffs!r})"


CyclicBurnside.ZERO = CyclicBurnside()
CyclicBurnside.ONE = CyclicBurnside.orbit(1)
