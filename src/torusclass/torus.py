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

Three independent computations of this polynomial are provided, each an
AlgebraSpec -> TorusClass function listed once in ROUTES by its CLI name;
a route with a bounded domain checks it and raises OutsideDomain, with
the reason, before doing any work:

* class_via_lambda: a_i = (-1)^i lambda^i of the class x of Spec L,
  which is sigma^i(-x) because sigma_t(-x) = sigma_t(x)^(-1); the
  coefficients are read straight off the symmetric powers of -x, computed
  mark by mark in the procyclic Burnside ring at the divisors of the lcm
  of the factor degrees (CyclicBurnside.sigma_series);
* class_via_universal: a_i is the restriction, along the Frobenius cycle
  type, of a universal element rho_i of the symmetric-group Burnside ring,
  the alternating sum over compositions of i of the sets of tuples of
  disjoint subsets; its marks at the cycle types of the powers of
  Frobenius come from a dynamic program over the cycles (_rho_marks),
  never from the lambda identity, and its domain is a cost estimate of
  that program, at most RHO_COST_BOUND;
* class_via_recursion: a direct stratification of affine n-space over
  the base, peeling off loci by the size of their vanishing set within
  each fiber, on isomorphism types (t, a) of fibered pieces: a return map
  with a cycles of length t, the algebra F_{q^t}^a.  Each stratum's
  component types are counted from the marks of the subsets of one fiber
  (_stratum_types), and each type's class is memoized as its nonzero
  terms, a piece over a larger base orbit being induced from it.  L is
  the product of one isotypic block per distinct degree, and _product,
  the one product of polynomials in L, multiplies the blocks' terms.

Point counting over any extension, and the characteristic polynomial of
Frobenius on the character lattice, are read off from marks and checked
against closed-form oracles.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cache, reduce
from typing import NamedTuple, Sequence

from .combinatorics import _check_int, _Immutable, _join, _partition_text, divisors, is_prime_power
from .cyclic import CyclicBurnside


def _check_extension(q: int, e: int) -> None:
    if not is_prime_power(q):
        raise ValueError(f"q={q!r} is not a prime power, so no field has q elements")
    _check_int("e", e, 1)


class AlgebraSpec(_Immutable):
    """Degrees of the field factors of a separable algebra, sorted
    descending.  The empty tuple is the zero algebra (n = 0).  Immutable,
    compared and hashed by its parts."""

    __slots__ = ("parts",)

    def __init__(self, parts: Sequence[int]):
        parts = tuple(parts)
        for p in parts:
            _check_int("factor degree", p, 1)
        object.__setattr__(self, "parts", tuple(sorted(parts, reverse=True)))

    def __repr__(self) -> str:
        return f"AlgebraSpec(parts={self.parts!r})"

    @property
    def n(self) -> int:
        return sum(self.parts)

    @classmethod
    def parse(cls, text: str) -> "AlgebraSpec":
        """Parse a comma-separated degree list such as "2,2" or "3"."""
        pieces = text.split(",")
        # ASCII decimal digits only: int() would also read "1_0", "+3", " 3"
        # and other scripts' digits
        if not all(piece.isascii() and piece.isdigit() for piece in pieces):
            raise ValueError(f"cannot parse partition {text!r}")
        return cls(tuple(map(int, pieces)))

    def __str__(self) -> str:
        return _partition_text(self.parts)


class TorusClass(_Immutable):
    """Monic degree-n polynomial in the Lefschetz class with
    zero-dimensional coefficients; coeffs[i] multiplies L^(n-i)."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: Sequence[CyclicBurnside]):
        _check_int("n", n, 0)
        coeffs = tuple(coeffs)
        if len(coeffs) != n + 1:
            raise ValueError("need exactly n + 1 coefficients")
        if any(not isinstance(c, CyclicBurnside) for c in coeffs):
            raise ValueError("coefficients must be CyclicBurnside elements")
        if coeffs[0] != CyclicBurnside.ONE:
            raise ValueError("polynomial must be monic")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", coeffs)

    def __mul__(self, other: "TorusClass") -> "TorusClass":
        """Product of polynomials in L, by _product on the flattened terms."""
        if not isinstance(other, TorusClass):
            return NotImplemented
        xs = [(i, k, c) for i, x in enumerate(self.coeffs) for k, c in x.coeffs.items()]
        ys = [(j, k, c) for j, y in enumerate(other.coeffs) for k, c in y.coeffs.items()]
        return _from_terms(self.n + other.n, _product(xs, ys))

    def count_points(self, q: int, e: int) -> int:
        """Number of points over the degree-e extension of a q-element
        field: evaluate each coefficient by its mark at e and L at q^e."""
        _check_extension(q, e)
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

    def text(self) -> str:
        return _render(self, _TEXT)

    def latex(self) -> str:
        return _render(self, _LATEX)

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"TorusClass(n={self.n}, {self.text()!r})"


class _Dialect(NamedTuple):
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


def _term_body(mag: int, k: int, power: int, dialect: _Dialect) -> str:
    """|c| [k] L^power, with power 0 for no power of L."""
    factors = []
    if k >= 2:
        if mag != 1:
            factors.append(str(mag))
        factors.append(dialect.field.format(k=k))
    elif mag != 1 or power == 0:
        factors.append(str(mag))
    if power >= 1:
        factors.append(_lefschetz_power(power, dialect))
    return dialect.times.join(factors)


def _render(tc: TorusClass, dialect: _Dialect) -> str:
    pieces: list[tuple[int, str]] = []
    for i, a in enumerate(tc.coeffs):
        power = tc.n - i
        terms = sorted(a.coeffs.items(), reverse=True)
        if power == 0 or len(terms) == 1:
            pieces += [(c, _term_body(abs(c), k, power, dialect)) for k, c in terms]
        elif terms:
            inner = _join([(c, _term_body(abs(c), k, 0, dialect)) for k, c in terms])
            pieces.append((1, f"({inner}){dialect.times}{_lefschetz_power(power, dialect)}"))
    return _join(pieces)


def spec_class(spec: AlgebraSpec) -> CyclicBurnside:
    """The zero-dimensional class of Spec L itself: one orbit per factor."""
    return CyclicBurnside(Counter(spec.parts))


def class_via_lambda(spec: AlgebraSpec) -> TorusClass:
    """Alternating-power route: a_i = (-1)^i lambda^i([Spec L]), which is
    sigma^i(-[Spec L]), so the coefficients are the symmetric powers of
    the opposite class, read off with no change of sign."""
    return TorusClass(spec.n, (-spec_class(spec)).sigma_series(spec.n))


class OutsideDomain(ValueError):
    """A route was asked for an input outside the domain it handles; the
    message is the reason, such as "mark DP estimate 354,512,640 >
    10,000,000"."""


# The rho route's domain: the largest cost estimate of its dynamic program
# that it accepts (see class_via_universal).  At 80-170 ns per unit
# (Python 3.11, 2-vCPU shared VM), an accepted input finishes within about
# 1.5 s.
RHO_COST_BOUND = 10**7


@cache
def _rho_marks(shape: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    """Marks of the universal coefficients rho_1..rho_n at a permutation
    with count cycles of each length, given by its shape, the (length,
    count) pairs that invariant_multiset_counts also reads; n is the sum of
    length * count, and entry i - 1 is the mark of rho_i.

    rho_i is the alternating sum, over the compositions of i, of the sets
    of tuples of disjoint subsets with those sizes, signed by tuple length.
    Its mark counts the tuples of disjoint, nonempty subsets fixed by the
    permutation, which are unions of its cycles, with i points in all and
    sign (-1)^(tuple length).  A dynamic program over the cycles, count
    times per length, counts the unordered ones: rows[s][j] is the number
    of ways to place s points' worth of the cycles seen so far into j
    blocks.  A cycle of length l is skipped, joins one of the j blocks, or
    opens a block of its own.  The j! orders of the blocks then give
    mark(rho_i) = sum_j (-1)^j j! rows[i][j].
    """
    n = sum(length * count for length, count in shape)
    rows: list[list[int]] = [[1]] + [[] for _ in range(n)]
    seen = 0
    for length, count in shape:
        for _ in range(count):
            # descending s reads each row before this cycle writes to it
            for s in range(min(seen, n - length), -1, -1):
                src = rows[s]
                if not src:
                    continue
                dst = rows[s + length]
                if len(dst) <= len(src):
                    dst.extend([0] * (len(src) + 1 - len(dst)))
                for j, v in enumerate(src):
                    if v:
                        dst[j] += j * v
                        dst[j + 1] += v
            seen += length
    signed = [1]
    for j in range(1, sum(count for _, count in shape) + 1):
        signed.append(-j * signed[-1])
    return tuple(sum(w * v for w, v in zip(signed, row)) for row in rows[1:])


def class_via_universal(spec: AlgebraSpec) -> TorusClass:
    """Universal-coefficient route: a_i is the restriction of the universal
    rho_i along the Frobenius cycle type.  The marks of every rho_i at the
    cycle type of each power of Frobenius come from one dynamic program
    per distinct type (_rho_marks), one row per divisor of lcm(parts),
    taken from the parts, and one call of the mark kernel pulls every
    coefficient back.  Each type is its shape, the (length, count) pairs
    of its cycles, so none is spelt out.

    Its domain is a cost estimate of those programs, taken before any of
    them runs: n c^2 / 2 summed over the distinct shapes with c cycles,
    at most RHO_COST_BOUND."""
    n = spec.n
    divs = divisors(*spec.parts)
    shapes = []
    for d in divs:
        counts: dict[int, int] = {}
        for c in spec.parts:
            g = math.gcd(c, d)
            counts[c // g] = counts.get(c // g, 0) + g
        shapes.append(tuple(sorted(counts.items(), reverse=True)))
    cost = sum(n * sum(g for _, g in s) ** 2 for s in set(shapes)) // 2
    if cost > RHO_COST_BOUND:
        raise OutsideDomain(f"mark DP estimate {cost:,} > {RHO_COST_BOUND:,}")
    coeffs = CyclicBurnside._from_mark_rows(divs, [_rho_marks(s) for s in shapes])
    return TorusClass(n, [CyclicBurnside.ONE, *coeffs])


def norm_one_class(spec: AlgebraSpec) -> TorusClass:
    """Class of the norm-one subtorus: degree n - 1, with coefficients
    (-1)^i lambda^i([Spec L] - 1) = sigma^i(1 - [Spec L]), read off the
    symmetric powers of 1 - [Spec L].  Multiplying by L - 1 recovers the
    full unit torus."""
    n = spec.n
    if n < 1:
        raise ValueError("norm-one subtorus needs n >= 1")
    return TorusClass(n - 1, (CyclicBurnside.ONE - spec_class(spec)).sigma_series(n - 1))


def point_count_oracle(spec: AlgebraSpec, q: int, e: int) -> int:
    """Unit count of L tensored up to the degree-e extension, from the
    splitting of each degree-n_j factor into gcd(n_j, e) factors of
    degree lcm(n_j, e)."""
    _check_extension(q, e)
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


def _stratum_types(t: int, a: int) -> list[list[tuple[int, int, int, int]]]:
    """Component types of the strata of a fibered piece over a single
    point whose return map sigma has a cycles of length t, as
    (m, t', a', count) entries, for each stratum index s in 0..r, r = a t.

    The stratum's base points are the s-subsets of the fiber, and its
    components are their sigma-orbits.  For d dividing t, sigma^d has a d
    cycles of length t / d and fixes a subset exactly when it is a union
    of them, so the fixed s-subsets number C(a d, s d / t), or 0 when t
    does not divide s d.  From these marks, one row per d over every s,
    one call of the mark kernel CyclicBurnside._from_mark_rows gives the
    number of orbits of each length m in every stratum.  An orbit of
    length m gives a component whose new return map sigma^m has
    a' = (r - s) m / t cycles of length t' = t / m on the complement.  No
    subset is enumerated.
    """
    r = a * t
    divs = divisors(t)
    rows = [
        [0 if s * d % t else math.comb(a * d, s * d // t) for s in range(r + 1)] for d in divs
    ]
    return [
        [(m, t // m, (r - s) * m // t, count) for m, count in orbits.coeffs.items()]
        for s, orbits in enumerate(CyclicBurnside._from_mark_rows(divs, rows))
    ]


def _product(xs, ys) -> list[tuple[int, int, int]]:
    """Product of polynomials in L by nonzero terms (i, k, c), c [k] at index i, ascending
    in i, so the last terms fix its size: [a] * [b] = gcd(a, b) [lcm(a, b)] on orbits."""
    out: list[dict[int, int]] = [{} for _ in range(xs[-1][0] + ys[-1][0] + 1)]
    for i, kx, cx in xs:
        for j, ky, cy in ys:
            g = math.gcd(kx, ky)
            acc, k = out[i + j], kx // g * ky
            acc[k] = acc.get(k, 0) + cx * cy * g
    return [(i, k, c) for i, acc in enumerate(out) for k, c in acc.items() if c]


def _from_terms(n: int, terms) -> TorusClass:
    coeffs: list[dict[int, int]] = [{} for _ in range(n + 1)]
    for i, k, c in terms:
        coeffs[i][k] = c
    return TorusClass(n, [CyclicBurnside._trusted(c) for c in coeffs])


@cache
def _units_of_type(t: int, a: int) -> tuple[tuple[int, int, int], ...]:
    """Class of the unit scheme of a fibered piece over a single point
    whose return map on the fiber has a cycles of length t: the algebra
    F_{q^t}^a, of rank r = a t.  Affine r-space splits into the units, the
    strata with vanishing set of size 1..r-1, and the zero section:

        [units] = L^r - sum_s [units(stratum_s)] - 1.

    A stratum component of type (m, t', a') lies over an m-orbit, so it is
    induced from the index-m subgroup, which sends [k] to [m k] in every
    coefficient of the class of type (t', a'), of rank r - s.  A class is
    its nonzero terms (i, k, c), c [k] at L^(r - i), from (0, 1, 1) on.
    """
    r = a * t
    # orbit-size -> multiplicity per coefficient, L^r first
    poly: list[dict[int, int]] = [{1: 1}, *({} for _ in range(r - 1)), {1: -1}]
    for s, entries in enumerate(_stratum_types(t, a)[1:r], 1):
        for m, t2, a2, count in entries:
            for i, k, c in _units_of_type(t2, a2):
                acc = poly[s + i]
                acc[m * k] = acc.get(m * k, 0) - count * c
    return tuple((i, k, c) for i, acc in enumerate(poly) for k, c in acc.items() if c)


def class_via_recursion(spec: AlgebraSpec) -> TorusClass:
    """Stratification route.  Over the point, the return map on the single
    fiber is Frobenius, of cycle type spec.parts, and L is the product of
    its isotypic blocks F_{q^t}^a, one per distinct degree t.  The units
    of a product are the product of the units: k blocks make k - 1 calls
    of _product, and the zero algebra's class is the point's (0, 1, 1)."""
    blocks = [_units_of_type(t, a) for t, a in Counter(spec.parts).items()]
    return _from_terms(spec.n, reduce(_product, blocks) if blocks else ((0, 1, 1),))


# The routes by CLI name.  Each takes an AlgebraSpec and returns its
# TorusClass, or raises OutsideDomain before doing any work.  The CLI
# takes the names, with "all", as its `--method` choices when it is
# imported.
ROUTES = {
    "lambda": class_via_lambda,
    "rho": class_via_universal,
    "recursion": class_via_recursion,
}
