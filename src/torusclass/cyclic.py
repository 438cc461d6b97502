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

The lambda and norm-one routes build each row of marks as one closed
product, a single integer of fixed-width fields (torus._lambda_rows), and
the kernel below runs its Moebius steps on such integers as they are
while one field of at most 8 bytes holds every mark (_unpack reads them
back).

Every route pulls marks back the same way, through one kernel
(_from_mark_rows), once per class: the marks at the divisors of L are a
zeta transform of the orbit counts over the divisor lattice, inverted by a
Moebius transform one prime of L at a time, on every coefficient at once.
For D divisors and omega distinct primes that costs O(D * omega) rather
than the O(D^2) of solving divisor by divisor.  The transform's row steps
depend on the divisors only, so they are listed once per divisor list
(_moebius_steps), and one pass then builds each coefficient's dict.
"""

from __future__ import annotations

import math
import sys
from functools import cache
from types import MappingProxyType
from typing import Mapping, Sequence

from .combinatorics import _check_int, _Immutable, _join


class CyclicBurnside(_Immutable):
    """Integer combination of orbit classes, keyed by orbit size."""

    __slots__ = ("_coeffs",)

    ZERO: "CyclicBurnside"
    ONE: "CyclicBurnside"

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        clean: dict[int, int] = {}
        if coeffs:
            for k, c in coeffs.items():
                _check_int("orbit size", k, 1)
                _check_int("coefficient", c)
                if c != 0:
                    clean[k] = c
        object.__setattr__(self, "_coeffs", clean)

    @classmethod
    def _trusted(cls, coeffs: dict[int, int]) -> "CyclicBurnside":
        """An element that adopts coeffs, a fresh dict of nonzero int
        coefficients that the package built and writes to no more: unlike
        __init__, nothing is checked or copied, and the coeffs property
        hands out only a read-only view of it."""
        self = object.__new__(cls)
        object.__setattr__(self, "_coeffs", coeffs)
        return self

    @classmethod
    def orbit(cls, k: int) -> "CyclicBurnside":
        """The class of the transitive action on k points."""
        return cls({k: 1})

    @classmethod
    def from_int(cls, m: int) -> "CyclicBurnside":
        return cls({1: m})

    @property
    def coeffs(self) -> Mapping[int, int]:
        """Read-only view of the nonzero coefficients by orbit size."""
        return MappingProxyType(self._coeffs)

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
        return CyclicBurnside._trusted({k: c for k, c in out.items() if c})

    __radd__ = __add__

    def __neg__(self) -> "CyclicBurnside":
        return CyclicBurnside._trusted({k: -c for k, c in self._coeffs.items()})

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
        return CyclicBurnside._trusted({k: c for k, c in out.items() if c})

    __rmul__ = __mul__

    def mark(self, e: int) -> int:
        """Fixed points of the e-th power of the generator: only orbits
        whose size divides e contribute, each with all its points."""
        _check_int("e", e, 1)
        return sum(k * c for k, c in self._coeffs.items() if e % k == 0)

    @classmethod
    def _from_mark_rows(
        cls, divs: list[int], rows: Sequence, packed: tuple[int, int] | None = None
    ) -> list["CyclicBurnside"]:
        """Recover elements from their marks at the ascending divisors divs
        of an order L: rows[j][i] is the mark of element i at divs[j].
        Callers build divs themselves, so no key is checked; an inconsistent
        vector shows up as a non-integral division and raises ValueError.
        Rows may be tuples shared with a memo table: none is written to.
        With packed = (size, count), each row is instead one integer whose
        count signed size-byte fields hold the marks, lowest first (see
        _unpack), and size is 1, 2, 4 or 8 and holds every mark and every
        Moebius intermediate.

        The marks are fix(d) = sum_{k | d} g(k) with g(k) = k a_k, a zeta
        transform over the divisor lattice.  It is inverted one prime p of
        L at a time, row by row: g(d) -= g(d / p) over the divisors in
        decreasing order, each step a fresh row (_moebius_steps lists the
        steps once per divisor list), or one integer subtraction on packed
        rows, each then read back by one memoryview cast.  Then one pass over
        the divisors in ascending order divides each nonzero g(d) by d and
        writes a_d straight into its element's dict.  g(d) is the numerator
        that an inversion by increasing d would meet, so a vector with a
        non-integral a_d is rejected at the same first d.
        """
        g = list(rows)
        steps = _moebius_steps(tuple(divs))
        if packed:
            for j, i in steps:
                g[j] -= g[i]
            g = _unpack(g, *packed)
        else:
            for j, i in steps:
                g[j] = [x - y for x, y in zip(g[j], g[i])]
        coeffs: list[dict[int, int]] = [{} for _ in g[0]]
        for d, row in zip(divs, g):
            for acc, num in zip(coeffs, row):
                if num:
                    a, r = divmod(num, d)
                    if r:
                        raise ValueError(f"mark vector is inconsistent at exponent {d}")
                    acc[d] = a
        return [cls._trusted(acc) for acc in coeffs]

    def base_change(self, d: int) -> "CyclicBurnside":
        """Restriction to the index-d subgroup: [k] -> gcd(d, k) [k / gcd(d, k)]."""
        _check_int("d", d, 1)
        out: dict[int, int] = {}
        for k, c in self._coeffs.items():
            g = math.gcd(d, k)
            out[k // g] = out.get(k // g, 0) + c * g
        return CyclicBurnside._trusted({k: m for k, m in out.items() if m})

    def to_json(self) -> dict[str, int]:
        return {str(k): self._coeffs[k] for k in sorted(self._coeffs)}

    def __str__(self) -> str:
        return _join([(c, f"{abs(c)}·[{k}]") for k, c in sorted(self._coeffs.items())])

    def __repr__(self) -> str:
        return f"CyclicBurnside({self._coeffs!r})"


@cache
def _moebius_steps(divs: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """The row steps g[j] -= g[i] of the mark kernel's Moebius transform
    over the ascending divisors divs of L, as (j, i) positions in order:
    for each prime p of L, ascending, every d = divs[j] that p divides, in
    decreasing order, with divs[i] = d / p.  The primes are the divisors
    that divide the still unfactored rest of L."""
    position = {d: j for j, d in enumerate(divs)}
    steps = []
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
                steps.append((j, position[d // p]))
    return tuple(steps)


# struct formats of the signed field sizes that one memoryview cast reads
_FORMATS = {1: "b", 2: "h", 4: "i", 8: "q"}


def _unpack(rows: list[int], size: int, count: int) -> list[Sequence[int]]:
    """The count fields f_0, f_1, ... of each row = sum_i f_i 2^(8 size i),
    each signed with |f_i| < 2^(8 size - 1).  Adding the bias b, which is
    2^(8 size - 1) in every field, makes field i f_i + 2^(8 size - 1), with
    no carry; xor with b then leaves each f_i in two's complement, which
    one memoryview cast per row reads for a size of 1, 2, 4 or 8 bytes (in
    native byte order: big-endian bytes hold the fields last first)."""
    bias = int.from_bytes((bytes(size - 1) + b"\x80") * count, "little")
    fmt = _FORMATS.get(size)
    out: list[Sequence[int]] = []
    for row in rows:
        biased = (row + bias) ^ bias
        if fmt is None:
            data = biased.to_bytes(size * count, "little")
            out.append([
                int.from_bytes(data[s : s + size], "little", signed=True)
                for s in range(0, len(data), size)
            ])
        else:
            fields = memoryview(biased.to_bytes(size * count, sys.byteorder)).cast(fmt)
            out.append(fields if sys.byteorder == "little" else fields[::-1])
    return out


CyclicBurnside.ZERO = CyclicBurnside()
CyclicBurnside.ONE = CyclicBurnside.orbit(1)
