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

Symmetric powers are computed one mark at a time (sigma_series).  An
element whose orbit sizes all divide L, and each of its symmetric powers,
is fixed by the L-th power of the generator, so it is determined by its
marks at the divisors of L.  The d-th power of the generator splits the
element into cycles (its base change along d), and the invariant
multisets of a permutation are counted by an integer series, virtual
elements included: one counting pass per divisor.  Nothing is
materialized.  Alternating powers need no second series: sigma_t(-x) =
sigma_t(x)^(-1) gives lambda^i(x) = (-1)^i sigma^i(-x).

Every route pulls marks back the same way, through one kernel
(_from_mark_rows), once per class: the marks at the divisors of L are a
zeta transform of the orbit counts over the divisor lattice, inverted by a
Moebius transform one prime of L at a time, on every coefficient at once.
For D divisors and omega distinct primes that costs O(D * omega) rather
than the O(D^2) of solving divisor by divisor.
"""

from __future__ import annotations

import math
from typing import ItemsView, Iterable, Mapping, Sequence

from .combinatorics import _check_nonnegative, _check_positive, _Immutable, divisors
from .series import invariant_multiset_counts


class CyclicBurnside(_Immutable):
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

    @classmethod
    def _trusted(cls, terms: Iterable[tuple[int, int]]) -> "CyclicBurnside":
        """An element from (orbit size, coefficient) pairs built here from
        integers the package owns: only zeros are dropped, unlike __init__."""
        self = object.__new__(cls)
        object.__setattr__(self, "_coeffs", {k: c for k, c in terms if c})
        return self

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
        # an element equal to an int, a multiple of [1], hashes like it
        if self._coeffs.keys() <= {1}:
            return hash(self._coeffs.get(1, 0))
        return hash(tuple(sorted(self._coeffs.items())))

    def __add__(self, other) -> "CyclicBurnside":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._coeffs)
        for k, c in other._coeffs.items():
            out[k] = out.get(k, 0) + c
        return CyclicBurnside._trusted(out.items())

    __radd__ = __add__

    def __neg__(self) -> "CyclicBurnside":
        return CyclicBurnside._trusted((k, -c) for k, c in self._coeffs.items())

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
        return CyclicBurnside._trusted(out.items())

    __rmul__ = __mul__

    def mark(self, e: int) -> int:
        """Fixed points of the e-th power of the generator: only orbits
        whose size divides e contribute, each with all its points."""
        _check_positive("e", e)
        return sum(k * c for k, c in self._coeffs.items() if e % k == 0)

    @classmethod
    def _from_mark_rows(
        cls, divs: list[int], rows: Sequence[Sequence[int]]
    ) -> list["CyclicBurnside"]:
        """Recover elements from their marks at the ascending divisors divs
        of an order L: rows[j][i] is the mark of element i at divs[j].
        Callers build divs themselves, so no key is checked; an inconsistent
        vector shows up as a non-integral division and raises ValueError.

        The marks are fix(d) = sum_{k | d} g(k) with g(k) = k a_k, a zeta
        transform over the divisor lattice.  It is inverted one prime p of
        L at a time, row by row: g(d) -= g(d / p) over the divisors in
        decreasing order.  The primes are the divisors that divide the still
        unfactored rest of L, taken in ascending order.  g(d) is then the
        numerator that an inversion by increasing d would meet, so a
        vector with a non-integral a_d is rejected at the same first d.
        """
        g = list(rows)  # each step builds a new row, so no row is written to
        position = {d: j for j, d in enumerate(divs)}
        rest = divs[-1]
        for p in divs[1:]:
            if rest == 1:
                break
            if rest % p:
                continue
            while rest % p == 0:
                rest //= p
            for j in range(len(divs) - 1, 0, -1):
                d = divs[j]
                if d % p == 0:
                    g[j] = [x - y for x, y in zip(g[j], g[position[d // p]])]
        quotients = g[:1]  # d = 1 divides every numerator
        for d, row in zip(divs[1:], g[1:]):
            if any([num % d for num in row]):
                raise ValueError(f"mark vector is inconsistent at exponent {d}")
            quotients.append([num // d for num in row])
        return [cls._trusted(zip(divs, column)) for column in zip(*quotients)]

    def base_change(self, d: int) -> "CyclicBurnside":
        """Restriction to the index-d subgroup: [k] -> gcd(d, k) [k / gcd(d, k)]."""
        _check_positive("d", d)
        return CyclicBurnside._trusted(self._cycles(d).items())

    def _cycles(self, d: int) -> dict[int, int]:
        out: dict[int, int] = {}
        for k, c in self._coeffs.items():
            g = math.gcd(d, k)
            out[k // g] = out.get(k // g, 0) + c * g
        return out

    def sigma_series(self, truncation: int) -> list["CyclicBurnside"]:
        """Symmetric powers sigma^0..sigma^truncation, from their marks.

        At each divisor d of the lcm of the orbit sizes, the d-th power of
        the generator acts with the cycles of base_change(d), so the marks
        of every sigma^j there are its invariant multiset counts: one
        counting pass per divisor gives one row of marks, and one call of
        the mark kernel pulls all the rows back."""
        _check_nonnegative("truncation", truncation)
        divs = divisors(math.lcm(*self._coeffs))
        counts = [invariant_multiset_counts(self._cycles(d), truncation) for d in divs]
        return self._from_mark_rows(divs, counts)

    def to_json(self) -> dict[str, int]:
        return {str(k): self._coeffs[k] for k in sorted(self._coeffs)}

    @classmethod
    def from_json(cls, obj: Mapping[str, int]) -> "CyclicBurnside":
        if not isinstance(obj, Mapping):
            raise ValueError(f"expected a JSON object of orbit sizes, not {type(obj).__name__}")
        coeffs: dict[int, int] = {}
        for key, c in obj.items():
            k = int(key)
            if k in coeffs:
                raise ValueError(f"orbit size {k} appears twice")
            coeffs[k] = c
        return cls(coeffs)

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
