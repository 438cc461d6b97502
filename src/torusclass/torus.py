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
each checks its bounded domain and raises OutsideDomain, with the reason,
before its counting work:

* class_via_lambda: a_i = (-1)^i lambda^i of the class x of Spec L,
  which is sigma^i(-x) because sigma_t(-x) = sigma_t(x)^(-1); the
  coefficients are read straight off the symmetric powers of -x, whose
  marks at a divisor d of the lcm of the factor degrees are the
  coefficients of one polynomial of degree n, prod_j (1 - X^(n_j/g_j))^g_j
  with g_j = gcd(n_j, d), built as one integer of fixed-width fields by
  Kronecker substitution (_lambda_rows); the rows go through the mark
  kernel packed while one field of at most 8 bytes holds them, as lists
  past that; its domain is a cost estimate, at most LAMBDA_COST_BOUND.
  The norm-one class (norm_one_class) takes the same rows, divided by
  1 - X, under the same bound;
* class_via_universal: a_i is the restriction, along the Frobenius cycle
  type, of a universal element rho_i of the symmetric-group Burnside ring,
  the alternating sum over compositions of i of the sets of tuples of
  disjoint subsets; its marks at the cycle types of the powers of
  Frobenius come from a dynamic program over the cycles (_rho_marks),
  never from the lambda identity, which adds a cycle to each count of
  blocks by one shift and add of an integer packing the counts by
  points, or by a list of rows on a shape of more than RHO_PACKED_CYCLES
  cycles; its domain is a cost estimate of that program, at most
  RHO_COST_BOUND;
* class_via_recursion: a direct stratification of affine space, peeling
  off loci by the size of their vanishing set.  Only fields F_{q^t} are
  stratified, their strata's component types counted from the marks of
  the subsets of one fiber (_stratum_types): the units of a product are
  the product of the units, so a block F_{q^t}^a is a power of its
  field's class, and L is the product of one block per distinct degree,
  all by _product.  Each type's class is memoized as its nonzero terms;
  the depth is about log2 a plus the prime factors of t.  Its domain is
  the rank of the largest block, at most RECURSION_RANK_BOUND.

Point counting over any extension, and the characteristic polynomial of
Frobenius on the character lattice, are read off from marks and checked
against closed-form oracles.

This module spells every class: _pieces gives its text, LaTeX or JSON in
pieces, about one per coefficient, that text() and latex() join.
"""

from __future__ import annotations

import math
from functools import cache, reduce
from typing import NamedTuple, Sequence

from .combinatorics import OutsideDomain, _check_int, _Immutable, _join, _partition_text, divisors
from .combinatorics import is_prime_power
from .cyclic import CyclicBurnside, _unpack


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
        return "".join(_pieces(self, "text"))

    def latex(self) -> str:
        return "".join(_pieces(self, "latex"))

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


def _pieces(tc: TorusClass, fmt: str) -> list[str]:
    """Pieces, about one per coefficient, whose concatenation is tc.text(),
    tc.latex() or json.dumps(tc.to_json()) for fmt "text", "latex" or "json"."""
    if fmt == "json":
        pieces, sep = [f'{{"n": {tc.n}, "coeffs": ['], ""
        for i, a in enumerate(tc.coeffs):
            terms = sorted(a.coeffs.items())
            if terms:
                artin = ", ".join([f'"{k}": {c}' for k, c in terms])
                pieces.append(f'{sep}{{"power": {tc.n - i}, "artin": {{{artin}}}}}')
                sep = ", "
        pieces.append("]}")
        return pieces
    dialect = _LATEX if fmt == "latex" else _TEXT
    pieces = []
    for i, a in enumerate(tc.coeffs):
        power = tc.n - i
        terms = sorted(a.coeffs.items(), reverse=True)
        if power == 0 or len(terms) < 2:
            signed = [(c, _term_body(abs(c), k, power, dialect)) for k, c in terms]
            pieces.append(_join(signed, lead=not pieces))
        else:  # never the lead: tc is monic
            inner = _join([(c, _term_body(abs(c), k, 0, dialect)) for k, c in terms])
            pieces.append(f" + ({inner}){dialect.times}{_lefschetz_power(power, dialect)}")
    return pieces


def spec_class(spec: AlgebraSpec) -> CyclicBurnside:
    """The zero-dimensional class of Spec L itself: one orbit per factor."""
    counts: dict[int, int] = {}
    for k in spec.parts:
        counts[k] = counts.get(k, 0) + 1
    return CyclicBurnside._trusted(counts)


def class_via_lambda(spec: AlgebraSpec) -> TorusClass:
    """Alternating-power route: a_i = (-1)^i lambda^i([Spec L]), which is
    sigma^i(-[Spec L]), so the coefficients are the symmetric powers of
    the opposite class, read off with no change of sign, from their marks
    as closed products (_lambda_rows).  Its domain is a cost estimate at
    most LAMBDA_COST_BOUND."""
    return TorusClass(spec.n, CyclicBurnside._from_mark_rows(*_lambda_rows(spec, False)))


def _lambda_rows(spec: AlgebraSpec, norm_one: bool) -> tuple[list[int], list, tuple | None]:
    """The (divs, rows, packed) arguments of CyclicBurnside._from_mark_rows
    for the lambda class, or with norm_one the norm-one class: the marks of
    sigma^0..sigma^m of x = -[Spec L] (m = n), or of 1 - [Spec L]
    (m = n - 1), at the divisors d of L = lcm(parts).

    At d a part n_j splits into g_j = gcd(n_j, d) cycles of length
    n_j / g_j, so the marks are the coefficients of the polynomial
    prod_j (1 - X^(n_j / g_j))^(g_j), over 1 - X for norm-one, of degree
    exactly m and with each coefficient at most 2^c in size for the
    c = sum_j g_j <= n cycles; _closed_row builds it as one integer.  When
    one field of 1, 2, 4 or 8 bytes holds n + bit_length(D) + 1 bits, for D
    divisors, it holds every mark and every intermediate of the kernel's
    Moebius steps, which at most double a mark once per prime of L, and
    the rows are handed over packed at that width; otherwise each row is
    built at c + 2 bits, rounded up to bytes, and unpacked at once.
    Unpacking every row at once, with no packed path, read norm_one_s
    1.13x and lambda_s 1.07x on the benchmark's single-n10, 1.08x and
    1.03x on table-n8 (Python 3.11, 2-vCPU shared VM).

    The domain is a cost estimate, at most LAMBDA_COST_BOUND: m + 1 times
    the cycles of each power type of x, summed over the divisors.  Its
    first term, the orbits, is checked before any part is factored, and
    the number of divisors before any is listed."""
    bound, count = LAMBDA_COST_BOUND, spec.n + (0 if norm_one else 1)
    # minus the element, by orbit size: each orbit k of it raises the
    # exponent of 1 - X^(k / g) by g at d, for g = gcd(k, d).  This is
    # spec_class and base_change written out: calling spec_class and a
    # split shared with base_change instead read norm_one_s 1.06x on the
    # benchmark's single-n10, one fresh process per input (10 pairs, no win)
    minus: dict[int, int] = {}
    for k in spec.parts:
        minus[k] = minus.get(k, 0) + 1
    if norm_one:
        minus[1] = minus.get(1, 0) - 1
    first = count * sum(map(abs, minus.values()))
    if first > bound:
        raise OutsideDomain(f"counting estimate {first:,} > {bound:,}")
    divs = divisors(*minus, most=bound // count)
    shapes = []
    for d in divs:
        powers: dict[int, int] = {}
        for k, m in minus.items():
            g = math.gcd(k, d)
            powers[k // g] = powers.get(k // g, 0) + m * g
        shapes.append(powers)
    cost = count * sum([abs(e) for powers in shapes for e in powers.values()])
    if cost > bound:
        raise OutsideDomain(f"counting estimate {cost:,} > {bound:,}")
    width = spec.n + len(divs).bit_length() + 1
    if width <= 64:
        size = next(size for size in (1, 2, 4, 8) if 8 * size >= width)
        return divs, [_closed_row(powers, size) for powers in shapes], (size, count)
    rows = []
    for powers in shapes:
        size = (sum(map(abs, powers.values())) + 9) // 8
        rows += _unpack([_closed_row(powers, size)], size, count)
    return divs, rows, None


def _closed_row(powers: dict[int, int], size: int) -> int:
    """prod_c (1 - X^c)^e over the cycle lengths c with exponent e = powers[c],
    a polynomial, at X = 2^(8 size): one integer whose size-byte fields are
    its coefficients, which size must hold as signed numbers.  Only
    powers[1] may be negative, and only -1: a norm-one row at a divisor
    that no part divides, divided by 1 - X exactly, in the factor of the
    least other length c, as (1 - X^c) / (1 - X) = 1 + X + ... + X^(c - 1)."""
    least = min([c for c, e in powers.items() if e > 0]) if powers.get(1) == -1 else 0
    row = 1
    for c, e in powers.items():
        if c == least:
            row *= _binomial_power(c, e - 1, size, c)
        elif e == 1:  # one shift and subtract, not a product
            row -= row << (8 * size * c)
        elif e > 1:
            row *= _binomial_power(c, e, size)
    return row


def _binomial_power(c: int, g: int, size: int, run: int = 1) -> int:
    """(1 - X^c)^g (1 + X + ... + X^(run - 1)) at X = 2^(8 size), for
    run <= c: its fields are (-1)^k C(g, k) at c k, ..., c k + run - 1.  By
    pow while its packed size, (c g + run) size bytes, is at most
    LAMBDA_POW_BYTES; past it, from the binomial coefficients, as one
    packing of the even terms less one of the odd."""
    if (c * g + run) * size <= LAMBDA_POW_BYTES:
        power = (1 - (1 << (8 * size * c))) ** g
        if run == 1:
            return power
        return power * int.from_bytes((b"\x01" + bytes(size - 1)) * run, "little")
    terms, b = [], 1
    for k in range(g + 1):
        terms.append(b.to_bytes(size, "little") * run)
        b = b * (g - k) // (k + 1)
    gap = bytes(size * (2 * c - run))
    even = int.from_bytes(gap.join(terms[::2]), "little")
    return even - (int.from_bytes(gap.join(terms[1::2]), "little") << (8 * size * c))


# The domain of the lambda route and of norm_one_class: the largest cost
# estimate that they accept, the marks per row (n + 1, or n for norm-one)
# times the cycles of every power type, summed over the rows.  A unit took
# 1.6-1.8 ns on a single field or repeated parts, where a few wide rows
# dominate ((5000,), at 58,586,715 units the largest input the tests run,
# 0.10 s; (2,)*4000, at 96,012,000, 0.16 s), and about 12 ns on many
# fields of prime degree, where thousands of short rows go through the
# kernel as lists ((37,31,...,2), at 84,750,336, 1.0 s) (Python 3.11,
# 2-vCPU shared VM); so an accepted input finishes within about 1.5 s.
LAMBDA_COST_BOUND = 10**8
# The rho route's domain: the largest cost estimate of its dynamic program
# that it accepts (see class_via_universal).  At 80-170 ns per unit of the
# list of rows (Python 3.11, 2-vCPU shared VM), which every shape of more
# than RHO_PACKED_CYCLES cycles keeps, an accepted input finishes within
# about 1.5 s; a packed shape runs faster than its estimate.
RHO_COST_BOUND = 10**7
# The largest packed size, in bytes, of a factor (1 - X^c)^g of a lambda or
# norm-one row that _binomial_power makes by pow, not from its binomials.
# pow took 0.3x their time at (c, g) = (1, 62) in 504 bytes and about 1x at
# (30, 8) in 482; past 1 KB the binomials were 1.2-45x faster, from (1, 100)
# in 1,313 bytes to (1000, 2) in 16,008.  End to end, building every factor
# from its binomials, with no pow and no shift and subtract for g = 1, read
# norm_one_s 1.22x and lambda_s 1.10x on the benchmark's single-n10, 1.17x
# and 1.09x on table-n8 (Python 3.11, 2-vCPU shared VM).
LAMBDA_POW_BYTES = 512
# The most cycles of a shape whose counts _rho_marks packs into integers.
# Packing took (1,)*64 to 0.6-0.85x of the list of rows, but (1,)*100 to
# 1.06x, (1,)*200 to 1.6x and (2,)*100 to 2.3x (Python 3.11, 2-vCPU shared
# VM): its fields grow with the cycles, the list's steps do not.
RHO_PACKED_CYCLES = 64
# The recursion route's domain: the largest rank t a of an isotypic block.
# Its depth is about log2 a plus the prime factors of t, far inside the
# frame limit, so the bound awaits a time estimate: (360,) takes 13-16 s.
RECURSION_RANK_BOUND = 400


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

    With c <= RHO_PACKED_CYCLES cycles, column j of the rows is one
    integer, packed[j], whose w-bit field s holds rows[s][j], so a cycle
    of length l updates a whole column by one shift and add:
    packed[j] += (j packed[j] + packed[j - 1]) << w l, for j descending.
    Each mark is a signed sum of counts of maps from the c cycles to the
    block indices 0..c (0 for skipped), so |mark| <= (c + 1)^c < 2^(w - 1)
    for w = 8 floor(((c + 1) bit_length(c + 1) + 9) / 8), and the sum's
    fields, biased by 2^(w - 1), are read back exactly.  A shape with more
    cycles keeps the list of rows: there the fields, of about c log2 c
    bits each, cost more big-integer work than the list saves in
    interpreted steps.
    """
    n = sum(length * count for length, count in shape)
    cycles = sum(count for _, count in shape)
    if cycles <= RHO_PACKED_CYCLES:
        width = 8 * (((cycles + 1) * (cycles + 1).bit_length() + 9) // 8)
        packed = [1]
        for length, count in shape:
            shift = width * length
            for _ in range(count):
                packed.append(packed[-1] << shift)
                # descending j reads each column before this cycle writes to it
                for j in range(len(packed) - 2, 0, -1):
                    packed[j] += (j * packed[j] + packed[j - 1]) << shift
        total = packed[-1]  # sum_j (-1)^j j! packed[j], by Horner's rule
        for j in range(len(packed) - 2, -1, -1):
            total = packed[j] - (j + 1) * total
        size = width // 8
        bias = int.from_bytes((bytes(size - 1) + b"\x80") * (n + 1), "little")
        data = (total + bias).to_bytes(size * (n + 1), "little")
        half = 1 << (width - 1)
        return tuple(
            int.from_bytes(data[s : s + size], "little") - half
            for s in range(size, size * (n + 1), size)
        )
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
    for j in range(1, cycles + 1):
        signed.append(-j * signed[-1])
    return tuple(sum(w * v for w, v in zip(signed, row)) for row in rows[1:])


def class_via_universal(spec: AlgebraSpec) -> TorusClass:
    """Universal-coefficient route: a_i is the restriction of the universal
    rho_i along the Frobenius cycle type.  The marks of every rho_i at the
    cycle type of each power of Frobenius come from one dynamic program
    per distinct type (_rho_marks), one row per divisor of lcm(parts),
    taken from the parts, and one call of the mark kernel pulls every
    coefficient back.  Each type is its shape, the (length, count) pairs
    of its cycles, so none is spelt out; a shape of at most
    RHO_PACKED_CYCLES cycles runs on packed integers, one shift and add
    per count of blocks and cycle, and a larger one on the list of rows.

    Its domain is a cost estimate of those programs, taken before any of
    them runs: n c^2 / 2 summed over the distinct shapes with c cycles,
    at most RHO_COST_BOUND."""
    n = spec.n
    # the shape at d = L, n cycles of length 1, alone costs n^3 / 2
    if (first := n**3 // 2) > RHO_COST_BOUND:
        raise OutsideDomain(f"mark DP estimate {first:,} > {RHO_COST_BOUND:,}")
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
    full unit torus.  Its rows and domain are those of class_via_lambda
    (_lambda_rows), on the element and truncation it takes."""
    if spec.n < 1:
        raise ValueError("norm-one subtorus needs n >= 1")
    return TorusClass(spec.n - 1, CyclicBurnside._from_mark_rows(*_lambda_rows(spec, True)))


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


def _stratum_types(t: int) -> list[list[tuple[int, int, int, int]]]:
    """Component types of the strata of the field F_{q^t}, a fibered piece
    over a single point whose return map sigma is one t-cycle, as
    (m, t', a', count) entries for each stratum index s in 0..t.

    The stratum's base points are the s-subsets of the fiber, and its
    components are their sigma-orbits.  For d dividing t, sigma^d has d
    cycles of length t / d and fixes a subset exactly when it is a union
    of them, so the fixed s-subsets number C(d, s d / t), or 0 when t
    does not divide s d.  From these marks, one row per d over every s,
    one call of the mark kernel CyclicBurnside._from_mark_rows gives the
    number of orbits of each length m in every stratum.  An orbit of
    length m gives a component whose new return map sigma^m has
    a' = (t - s) m / t cycles of length t' = t / m on the complement.  No
    subset is enumerated.
    """
    divs = divisors(t)
    rows = [[0 if s * d % t else math.comb(d, s * d // t) for s in range(t + 1)] for d in divs]
    return [
        [(m, t // m, (t - s) * m // t, count) for m, count in orbits.coeffs.items()]
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
    F_{q^t}^a, of rank a t; for a > 1, the product of F_{q^t}^(a // 2) and
    F_{q^t}^(a - a // 2).  Only a field is stratified: affine t-space
    splits into the units, the strata with vanishing set of size 1..t-1,
    and the zero section:

        [units] = L^t - sum_s [units(stratum_s)] - 1.

    A stratum component of type (m, t', a') lies over an m-orbit, so it is
    induced from the index-m subgroup, which sends [k] to [m k] in every
    coefficient of the class of type (t', a'), of rank t - s.  A class is
    its nonzero terms (i, k, c), c [k] at L^(rank - i), from (0, 1, 1) on.
    """
    if a > 1:
        return tuple(_product(_units_of_type(t, a // 2), _units_of_type(t, a - a // 2)))
    # orbit-size -> multiplicity per coefficient, L^t first
    poly: list[dict[int, int]] = [{1: 1}, *({} for _ in range(t - 1)), {1: -1}]
    for s, entries in enumerate(_stratum_types(t)[1:t], 1):
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
    of _product besides their powers; the zero algebra is the point's (0, 1, 1)."""
    blocks = spec_class(spec).coeffs
    rank = max((t * a for t, a in blocks.items()), default=0)
    if rank > RECURSION_RANK_BOUND:
        raise OutsideDomain(f"isotypic block rank {rank:,} > {RECURSION_RANK_BOUND:,}")
    terms = [_units_of_type(t, a) for t, a in blocks.items()]
    return _from_terms(spec.n, reduce(_product, terms) if terms else ((0, 1, 1),))


# The routes by CLI name.  Each takes an AlgebraSpec and returns its
# TorusClass, or raises OutsideDomain before its counting work.  The CLI
# takes the names, with "all", as its `--method` choices when it is
# imported.
ROUTES = {
    "lambda": class_via_lambda,
    "rho": class_via_universal,
    "recursion": class_via_recursion,
}
