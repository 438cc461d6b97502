"""Classes of unit tori of separable algebras over a finite field.

A separable algebra L over the field with q elements is, up to
isomorphism, a product of field extensions of degrees n_1 >= n_2 >= ...,
recorded here as an AlgebraSpec.  The scheme of units of L is an
n-dimensional torus whose class, in a ring of varieties where
zero-dimensional classes and powers of the Lefschetz class L are
independent, is a monic polynomial

    [units] = L^n + a_1 L^(n-1) + ... + a_n

with each a_i an integer combination of classes of finite field
extensions, modelled by CyclicBurnside elements via [k] = [Spec F_{q^k}].

Three independent computations of this polynomial are provided:

* class_via_lambda: a_i = (-1)^i lambda^i of the class of Spec L, with
  the alternating powers computed mark by mark in the procyclic Burnside
  ring, at the divisors of the lcm of the factor degrees;
* class_via_universal: a_i is the restriction, along the Frobenius cycle
  type, of a universal element of the symmetric-group Burnside subring
  built from an alternating sum over compositions of i;
* class_via_recursion: a direct stratification of affine n-space over
  the base, peeling off loci by the size of their vanishing set within
  each fiber, computed on isomorphism types of fibered pieces: each
  stratum's component types are counted from the marks of the subsets of
  one fiber, grouped by how many points they take from each cycle length
  of its return map (_stratum_types); a return map with cycles of several
  lengths is factored into isotypic blocks, one per length, whose unit
  classes multiply, so only isotypic types are stratified; the unit class
  is memoized per return-map cycle type, a piece over a larger base orbit
  being induced from it.

Point counting over any extension, and the characteristic polynomial of
Frobenius on the character lattice, are read off from marks and checked
against closed-form oracles.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import product
from typing import Mapping, Sequence

from .combinatorics import Composition, Partition, divisors, is_prime_power
from .cyclic import CyclicBurnside
from .schur import restrict_to_cyclic, torus_coefficient


def _check_field_size(q: int) -> None:
    if not is_prime_power(q):
        raise ValueError(f"q={q!r} is not a prime power, so no field has q elements")


@dataclass(frozen=True)
class AlgebraSpec:
    """Degrees of the field factors of a separable algebra, sorted
    descending.  The empty tuple is the zero algebra (n = 0)."""

    parts: tuple[int, ...]

    def __init__(self, parts: Sequence[int]):
        parts = tuple(sorted(parts, reverse=True))
        if any(isinstance(p, bool) or not isinstance(p, int) or p < 1 for p in parts):
            raise ValueError("factor degrees must be positive integers")
        object.__setattr__(self, "parts", parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    @classmethod
    def parse(cls, text: str) -> "AlgebraSpec":
        """Parse a comma-separated degree list such as "2,2" or "3"."""
        try:
            parts = tuple(int(piece) for piece in text.split(","))
        except ValueError:
            raise ValueError(f"cannot parse partition {text!r}") from None
        return cls(parts)

    def __str__(self) -> str:
        return ",".join(map(str, self.parts))


class TorusClass:
    """Monic degree-n polynomial in the Lefschetz class with
    zero-dimensional coefficients; coeffs[i] multiplies L^(n-i)."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: Sequence[CyclicBurnside]):
        coeffs = tuple(coeffs)
        if n < 0 or len(coeffs) != n + 1:
            raise ValueError("need exactly n + 1 coefficients")
        if any(not isinstance(c, CyclicBurnside) for c in coeffs):
            raise ValueError("coefficients must be CyclicBurnside elements")
        if coeffs[0] != CyclicBurnside.ONE:
            raise ValueError("polynomial must be monic")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("TorusClass is immutable")

    def coefficient(self, power: int) -> CyclicBurnside:
        """The coefficient of L^power."""
        if not 0 <= power <= self.n:
            raise ValueError(f"power {power} out of range 0..{self.n}")
        return self.coeffs[self.n - power]

    def __eq__(self, other) -> bool:
        if not isinstance(other, TorusClass):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.n, self.coeffs))

    def __mul__(self, other: "TorusClass") -> "TorusClass":
        if not isinstance(other, TorusClass):
            return NotImplemented
        n = self.n + other.n
        out = [CyclicBurnside.ZERO] * (n + 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return TorusClass(n, out)

    def count_points(self, q: int, e: int) -> int:
        """Number of points over the degree-e extension of a q-element
        field: evaluate each coefficient by its mark at e and L at q^e."""
        _check_field_size(q)
        if e < 1:
            raise ValueError("e must be positive")
        qe = q**e
        return sum(a.mark(e) * qe ** (self.n - i) for i, a in enumerate(self.coeffs))

    def char_poly(self) -> tuple[int, ...]:
        """Coefficients, by ascending power, of the characteristic
        polynomial of the generator on the character lattice: each torus
        coefficient contributes its mark at 1."""
        out = [0] * (self.n + 1)
        for i, a in enumerate(self.coeffs):
            out[self.n - i] = a.mark(1)
        return tuple(out)

    def to_json(self) -> dict:
        entries = []
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            entries.append({"power": self.n - i, "artin": a.to_json()})
        return {"n": self.n, "coeffs": entries}

    @classmethod
    def from_json(cls, obj: Mapping) -> "TorusClass":
        n = obj["n"]
        coeffs = [CyclicBurnside.ZERO] * (n + 1)
        for entry in obj["coeffs"]:
            power = entry["power"]
            if not 0 <= power <= n:
                raise ValueError(f"power {power} out of range 0..{n}")
            coeffs[n - power] = CyclicBurnside.from_json(entry["artin"])
        return cls(n, coeffs)

    def text(self) -> str:
        return _render(self, _TEXT)

    def latex(self) -> str:
        return _render(self, _LATEX)

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"TorusClass(n={self.n}, {self.text()!r})"


@dataclass(frozen=True)
class _Dialect:
    field: str  # template with {k}, the class of the degree-k extension
    lefschetz: str
    times: str
    power: str  # template with {base} and {power}


_TEXT = _Dialect("[Spec F_q^{k}]", "L", "·", "{base}^{power}")
_LATEX = _Dialect(
    r"[\operatorname{{Spec}}\mathbb{{F}}_{{q^{{{k}}}}}]",
    r"\mathbb{L}",
    "",
    "{base}^{{{power}}}",
)


def _lefschetz_power(power: int, dialect: _Dialect) -> str:
    if power == 1:
        return dialect.lefschetz
    return dialect.power.format(base=dialect.lefschetz, power=power)


def _term_body(mag: int, k: int, power: int | None, dialect: _Dialect) -> str:
    factors = []
    if k >= 2:
        if mag != 1:
            factors.append(str(mag))
        factors.append(dialect.field.format(k=k))
    elif mag != 1 or power is None or power == 0:
        factors.append(str(mag))
    if power is not None and power >= 1:
        factors.append(_lefschetz_power(power, dialect))
    return dialect.times.join(factors)


def _join(pieces: list[tuple[int, str]]) -> str:
    out = []
    for sign, body in pieces:
        if not out:
            out.append(body if sign > 0 else f"-{body}")
        else:
            out.append(f"+ {body}" if sign > 0 else f"- {body}")
    return " ".join(out)


def _render(tc: TorusClass, dialect: _Dialect) -> str:
    pieces: list[tuple[int, str]] = []
    for i, a in enumerate(tc.coeffs):
        power = tc.n - i
        terms = sorted(a.coeffs.items(), reverse=True)
        if not terms:
            continue
        if power == 0:
            for k, c in terms:
                pieces.append((1 if c > 0 else -1, _term_body(abs(c), k, None, dialect)))
        elif len(terms) == 1:
            k, c = terms[0]
            pieces.append((1 if c > 0 else -1, _term_body(abs(c), k, power, dialect)))
        else:
            inner = _join(
                [(1 if c > 0 else -1, _term_body(abs(c), k, None, dialect)) for k, c in terms]
            )
            body = f"({inner}){dialect.times}{_lefschetz_power(power, dialect)}"
            pieces.append((1, body))
    return _join(pieces) if pieces else "0"


def spec_class(spec: AlgebraSpec) -> CyclicBurnside:
    """The zero-dimensional class of Spec L itself: one orbit per factor."""
    total = CyclicBurnside.ZERO
    for k in spec.parts:
        total = total + CyclicBurnside.orbit(k)
    return total


def class_via_lambda(spec: AlgebraSpec) -> TorusClass:
    """Alternating-power route: a_i = (-1)^i lambda^i([Spec L])."""
    n = spec.n
    lams = spec_class(spec).lambda_series(n)
    coeffs = [lam if i % 2 == 0 else -lam for i, lam in enumerate(lams)]
    return TorusClass(n, coeffs)


def class_via_universal(spec: AlgebraSpec) -> TorusClass:
    """Universal-coefficient route: restrict the degree-n universal
    coefficients along the Frobenius cycle type."""
    n = spec.n
    coeffs = [CyclicBurnside.ONE]
    for i in range(1, n + 1):
        coeffs.append(restrict_to_cyclic(torus_coefficient(n, i), spec.parts))
    return TorusClass(n, coeffs)


def norm_one_class(spec: AlgebraSpec) -> TorusClass:
    """Class of the norm-one subtorus: degree n - 1, with coefficients
    (-1)^i lambda^i([Spec L] - 1).  Multiplying by L - 1 recovers the
    full unit torus."""
    n = spec.n
    if n < 1:
        raise ValueError("norm-one subtorus needs n >= 1")
    virtual = spec_class(spec) - CyclicBurnside.ONE
    lams = virtual.lambda_series(n - 1)
    coeffs = [lam if i % 2 == 0 else -lam for i, lam in enumerate(lams)]
    return TorusClass(n - 1, coeffs)


def point_count_oracle(spec: AlgebraSpec, q: int, e: int) -> int:
    """Unit count of L tensored up to the degree-e extension, from the
    splitting of each degree-n_j factor into gcd(n_j, e) factors of
    degree lcm(n_j, e)."""
    _check_field_size(q)
    if e < 1:
        raise ValueError("e must be positive")
    count = 1
    for nj in spec.parts:
        count *= (q ** math.lcm(nj, e) - 1) ** math.gcd(nj, e)
    return count


def char_poly_oracle(spec: AlgebraSpec) -> tuple[int, ...]:
    """Product of X^(n_j) - 1 over the factors, by ascending power."""
    poly = [1]
    for nj in spec.parts:
        out = [0] * (len(poly) + nj)
        for i, c in enumerate(poly):
            out[i + nj] += c
            out[i] -= c
        poly = out
    return tuple(poly)


@cache
def _stratum_types(tau: Partition) -> tuple[tuple[tuple[tuple[int, Partition], int], ...], ...]:
    """Component types of the strata of a fibered piece over a single
    point whose return map sigma has cycle type tau, as ((m, tau'), count)
    pairs, for each stratum index i in 0..r, r = sum(tau).

    The stratum's base points are the i-subsets of the fiber, and its
    components are their sigma-orbits.  Let sigma have a_t cycles of
    length t.  Subsets are grouped by how many points s_t they take from
    the cycles of each length t.  On those points sigma^d has a_t g cycles
    of length t / g, g = gcd(d, t), and fixes a subset exactly when it is a
    union of them, so the fixed subsets of a group number
    prod_t C(a_t g, s_t g / t), or 0 when t does not divide s_t g.  From
    these marks, CyclicBurnside.from_marks gives the number of orbits of
    each length m.  An orbit of length m gives a component of type
    (m, tau'): tau' is the cycle type of sigma^m, the new return map, on
    the complement, which is again a union of those cycles for d = m.  No
    subset is enumerated.
    """
    lengths = sorted(Counter(tau).items(), reverse=True)
    strata: list[dict[tuple[int, Partition], int]] = [{} for _ in range(sum(tau) + 1)]
    for picks in product(*(range(a * t + 1) for t, a in lengths)):
        blocks = tuple(zip(lengths, picks))
        # a block taken wholly or not at all is fixed by every power of
        # sigma: it adds a factor 1 to each mark and nothing to the order
        partial = [(t, a, s) for (t, a), s in blocks if 0 < s < a * t]
        marks = {}
        for d in divisors(math.lcm(*(t for t, _, _ in partial))):
            fixed = 1
            for t, a, s in partial:
                g = math.gcd(d, t)
                if s * g % t:
                    fixed = 0
                    break
                fixed *= math.comb(a * g, s * g // t)
            marks[d] = fixed
        counts = strata[sum(picks)]
        for m, orbits in CyclicBurnside.from_marks(marks).coeffs.items():
            rest: list[int] = []
            for (t, a), s in blocks:
                g = math.gcd(m, t)
                rest += [t // g] * ((a * t - s) * g // t)
            key = (m, tuple(sorted(rest, reverse=True)))
            counts[key] = counts.get(key, 0) + orbits
    return tuple(tuple(sorted(counts.items(), reverse=True)) for counts in strata)


def _times_class(
    poly: list[dict[int, int]], factor: Sequence[CyclicBurnside]
) -> list[dict[int, int]]:
    """Product of two polynomials in L, coefficients by ascending power:
    poly's as orbit-size -> multiplicity dicts, factor's as classes; the
    orbits multiply as [a] * [b] = gcd(a, b) [lcm(a, b)]."""
    out: list[dict[int, int]] = [{} for _ in range(len(poly) + len(factor) - 1)]
    for i, x in enumerate(poly):
        for j, y in enumerate(factor):
            acc = out[i + j]
            for kx, cx in x.items():
                for ky, cy in y.terms():
                    k = math.lcm(kx, ky)
                    acc[k] = acc.get(k, 0) + cx * cy * math.gcd(kx, ky)
    return out


@cache
def _units_of_type(tau: Partition) -> tuple[CyclicBurnside, ...]:
    """Class of the unit scheme of a fibered piece over a single point
    whose return map on the fiber has cycle type tau: a rank-r algebra
    with r = sum(tau).  Coefficients by ascending Lefschetz power.

    The algebra is the product of one factor per distinct cycle length t,
    of type (t,) * a_t.  The units of a product are the product of the
    units, so a mixed type is the product, as polynomials in L, of its
    isotypic blocks, each kept whole.  An isotypic type is stratified:
    affine r-space splits into the units, the strata with vanishing set of
    size 1..r-1, and the zero section:

        [units] = L^r - sum_i [units(stratum_i)] - 1.

    A stratum component of type (m, tau') lies over an m-orbit, so it is
    induced from the index-m subgroup, which sends [k] to [m k] in every
    coefficient of the class of type tau'; tau' is again isotypic.  Rank 0
    is the zero algebra, whose unit scheme is the point.
    """
    r = sum(tau)
    if r == 0:
        return (CyclicBurnside.ONE,)
    # orbit-size -> multiplicity per Lefschetz power
    poly: list[dict[int, int]]
    lengths = Counter(tau)
    if len(lengths) > 1:
        poly = [{1: 1}]
        for t, a in lengths.items():
            poly = _times_class(poly, _units_of_type((t,) * a))
        return tuple(CyclicBurnside(p) for p in poly)
    poly = [{} for _ in range(r + 1)]
    poly[r][1] = 1
    poly[0][1] = -1
    strata = _stratum_types(tau)
    for i in range(1, r):
        for (m, rest), count in strata[i]:
            for j, c in enumerate(_units_of_type(rest)):
                acc = poly[j]
                for k, v in c.terms():
                    acc[m * k] = acc.get(m * k, 0) - count * v
    return tuple(CyclicBurnside(p) for p in poly)


def class_via_recursion(spec: AlgebraSpec) -> TorusClass:
    """Stratification route: peel affine n-space over the point down to
    the units, recursing into each stratum.  Over the point, the return
    map on the single fiber is Frobenius, of cycle type spec.parts."""
    n = spec.n
    poly = _units_of_type(spec.parts)
    return TorusClass(n, tuple(poly[n - i] for i in range(n + 1)))


def recursion_stratum_base(spec: AlgebraSpec, alpha: Composition) -> CyclicBurnside:
    """Zero-dimensional class of the stratum base reached from the initial
    algebra by peeling vanishing sets of sizes alpha, in order.  Used to
    cross-check the recursion's intermediate bases against the restricted
    tuple-set classes."""
    pieces: dict[tuple[int, Partition], int] = {(1, spec.parts): 1}
    r = spec.n
    for i in alpha:
        if not 1 <= i <= r:
            raise ValueError(f"stratum index {i} out of range 1..{r}")
        peeled: dict[tuple[int, Partition], int] = {}
        for (b, tau), c in pieces.items():
            for (m, rest), count in _stratum_types(tau)[i]:
                key = (b * m, rest)
                peeled[key] = peeled.get(key, 0) + c * count
        pieces = peeled
        r -= i
    base: dict[int, int] = {}
    for (b, _), c in pieces.items():
        base[b] = base.get(b, 0) + c
    return CyclicBurnside(base)
