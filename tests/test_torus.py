"""Unit-torus classes: three routes, strata, counting, rendering."""

import copy
import inspect
import math
import pickle
import sys
import time
from collections import Counter
from functools import cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.counting import compositions, power_cycle_type
from oracles.cyclic import from_marks, induce
from oracles.gsets import (
    FiniteGSet,
    cycle_type,
    orbits,
    perm_of_cycle_type,
    recursion_stratum_base,
    subset_walk_stratum_types,
)
from oracles.schur import restrict, tuple_set_class
from torusclass import cli, combinatorics, cyclic, schur, torus
from torusclass.combinatorics import divisors, partitions
from torusclass.cyclic import CyclicBurnside
from torusclass.schur import torus_coefficient
from torusclass.torus import (
    AlgebraSpec,
    OutsideDomain,
    TorusClass,
    _rho_marks,
    _stratum_types,
    _units_of_type,
    char_poly_oracle,
    class_via_lambda,
    class_via_recursion,
    class_via_universal,
    norm_one_class,
    point_count_oracle,
    spec_class,
)

ROUTES = (class_via_lambda, class_via_universal, class_via_recursion)


def _tc(n, *coeff_maps):
    return TorusClass(n, tuple(CyclicBurnside(m) for m in coeff_maps))


# classes of the unit tori of the four benchmark algebras, frozen
BENCHMARKS = {
    (2,): _tc(2, {1: 1}, {2: -1}, {2: 1, 1: -1}),
    (3,): _tc(3, {1: 1}, {3: -1}, {3: 1}, {1: -1}),
    (4,): _tc(4, {1: 1}, {4: -1}, {4: 2, 2: -1}, {4: -1}, {2: 1, 1: -1}),
    (2, 2): _tc(4, {1: 1}, {2: -2}, {2: 4, 1: -2}, {2: -2}, {1: 1}),
}


def test_algebra_spec_normalization():
    assert AlgebraSpec((1, 3, 2)).parts == (3, 2, 1)
    assert AlgebraSpec(()).n == 0
    assert AlgebraSpec.parse("2,2").parts == (2, 2)
    with pytest.raises(ValueError):
        AlgebraSpec((0,))
    with pytest.raises(ValueError):
        AlgebraSpec.parse("2,x")
    with pytest.raises(ValueError):
        AlgebraSpec([True, 2])


def test_benchmark_classes_by_every_route():
    for parts, expected in BENCHMARKS.items():
        spec = AlgebraSpec(parts)
        for route in ROUTES:
            assert route(spec) == expected


def test_split_torus_is_binomial():
    spec = AlgebraSpec((1, 1, 1))
    expected = _tc(3, {1: 1}, {1: -3}, {1: 3}, {1: -1})
    for route in ROUTES:
        assert route(spec) == expected
    assert class_via_lambda(spec).text() == "L^3 - 3·L^2 + 3·L - 1"


def test_one_dimensional_torus():
    spec = AlgebraSpec((1,))
    for route in ROUTES:
        tc = route(spec)
        assert tc == _tc(1, {1: 1}, {1: -1})
    assert class_via_lambda(spec).text() == "L - 1"


def test_zero_algebra_conventions():
    spec = AlgebraSpec(())
    for route in (class_via_lambda, class_via_recursion, class_via_universal):
        tc = route(spec)
        assert tc.n == 0 and tc.coeffs == (CyclicBurnside.ONE,)
        assert tc.count_points(5, 2) == 1
    assert point_count_oracle(spec, 5, 2) == 1
    assert class_via_lambda(spec).text() == "1"


def test_routes_agree_on_all_small_partitions():
    for n in range(1, 6):
        for parts in partitions(n):
            spec = AlgebraSpec(parts)
            expected = class_via_lambda(spec)
            assert class_via_universal(spec) == expected
            assert class_via_recursion(spec) == expected


_PACKAGE = (cli, combinatorics, cyclic, schur, torus)
# comprehension frames depend on the Python version (3.12 inlines list, dict
# and set comprehensions into the enclosing frame), so none is counted
_COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}


def _function_names():
    """Qualified names of the package's functions and methods by (file,
    first line): co_qualname is 3.11+ only."""
    names = {}
    for module in _PACKAGE:
        for value in vars(module).values():
            owned = isinstance(value, type) and value.__module__ == module.__name__
            for member in vars(value).values() if owned else (value,):
                fn = inspect.unwrap(getattr(member, "fget", None) or getattr(member, "__func__", member))
                if hasattr(fn, "__code__"):
                    names[fn.__code__.co_filename, fn.__code__.co_firstlineno] = fn.__qualname__
    return names


def _functions_entered(route, spec):
    """(file, first line) of every package function that route(spec)
    enters, with every memo table cleared first, so that a cached call
    still shows."""
    for module in _PACKAGE:
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    files = {module.__file__ for module in _PACKAGE}
    entered = set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename in files and code.co_name not in _COMPREHENSIONS:
            entered.add((code.co_filename, code.co_firstlineno))

    sys.setprofile(profile)
    try:
        route(spec)
    finally:
        sys.setprofile(None)
    return entered


def test_routes_share_only_the_core():
    # agreement between routes is evidence only where they share no code:
    # a change that makes two routes share more must name it here
    spec = AlgebraSpec((6, 4, 3, 2, 2))
    entered = [_functions_entered(route, spec) for route in torus.ROUTES.values()]
    shared = set().union(*(a & b for a, b in combinations(entered, 2)))
    names = _function_names()
    assert {names.get(key, f"{key[0]}:{key[1]}") for key in shared} == {
        "_check_int",
        "divisors",
        "_moebius_steps",
        "CyclicBurnside.__eq__",
        "CyclicBurnside._coerce",
        "CyclicBurnside._from_mark_rows",
        "CyclicBurnside._trusted",
        "AlgebraSpec.n",
        "TorusClass.__init__",
    }


def test_class_of_product_algebra_is_product_of_classes():
    for parts in [(2, 2), (2, 3), (1, 4), (3, 3), (2, 2, 1)]:
        spec = AlgebraSpec(parts)
        prod = class_via_lambda(AlgebraSpec((parts[0],)))
        for p in parts[1:]:
            prod = prod * class_via_lambda(AlgebraSpec((p,)))
        assert class_via_lambda(spec) == prod


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 11)
    .flatmap(lambda n1: st.tuples(st.just(n1), st.integers(1, 12 - n1)))
    .flatmap(lambda ns: st.tuples(*(st.sampled_from(partitions(n)) for n in ns))),
    st.sampled_from(ROUTES),
)
def test_class_is_multiplicative_across_routes(pair, route):
    # the units of a product algebra are the product of the unit groups
    p1, p2 = pair
    expected = route(AlgebraSpec(p1)) * route(AlgebraSpec(p2))
    assert route(AlgebraSpec(p1 + p2)) == expected


def test_base_change_splits_each_factor():
    # over the degree-e extension a field of degree n_j splits into
    # gcd(n_j, e) fields of degree n_j / gcd(n_j, e): every route, on all
    # 828 pairs of a partition of n <= 10 and e <= 6
    pairs = 0
    for route in ROUTES:
        classes = {p: route(AlgebraSpec(p)).coeffs for n in range(1, 11) for p in partitions(n)}
        for parts, coeffs in classes.items():
            for e in range(1, 7):
                split = [nj // math.gcd(nj, e) for nj in parts for _ in range(math.gcd(nj, e))]
                got = tuple(c.base_change(e) for c in coeffs)
                assert got == classes[tuple(sorted(split, reverse=True))], (route, parts, e)
                pairs += 1
    assert pairs == 3 * 828


def test_squaring_the_quadratic_class():
    assert BENCHMARKS[(2, 2)] == BENCHMARKS[(2,)] * BENCHMARKS[(2,)]


def _object_product(x, y):
    """Reference product of polynomials in L, one CyclicBurnside product
    and sum per pair of coefficients."""
    n = x.n + y.n
    out = [CyclicBurnside.ZERO] * (n + 1)
    for i, a in enumerate(x.coeffs):
        for j, b in enumerate(y.coeffs):
            out[i + j] = out[i + j] + a * b
    return TorusClass(n, out)


# operands of the product: any route's class with n <= 12, the point, L - 1,
# and L and L^2 - [2] L, whose last term sits below their degree
_FACTORS = st.one_of(
    st.builds(
        lambda parts, route: route(AlgebraSpec(parts)),
        st.integers(0, 12).flatmap(lambda n: st.sampled_from(partitions(n))),
        st.sampled_from(ROUTES),
    ),
    st.just(_tc(0, {1: 1})),
    st.just(_tc(1, {1: 1}, {1: -1})),
    st.just(_tc(1, {1: 1}, {})),
    st.just(_tc(2, {1: 1}, {2: -1}, {})),
)


@settings(max_examples=80, deadline=None)
@given(_FACTORS, _FACTORS)
def test_product_matches_the_coefficientwise_reference(x, y):
    assert x * y == _object_product(x, y)


@pytest.mark.parametrize(
    "parts, products",
    [((8,), 0), ((4, 4), 0), ((1,) * 8, 0), ((5, 4, 1), 2), ((6, 4, 3, 2, 2), 3)],
)
def test_recursion_multiplies_only_its_blocks(parts, products, monkeypatch):
    # one isotypic block per distinct degree, multiplied among themselves:
    # k blocks make k - 1 products, and none is by the point
    calls = []
    product = torus._product
    monkeypatch.setattr(torus, "_product", lambda *args: calls.append(args) or product(*args))
    assert class_via_recursion(AlgebraSpec(parts)) == class_via_lambda(AlgebraSpec(parts))
    assert len(calls) == products
    assert all(len(terms) > 1 for factors in calls for terms in factors)  # never the point


def _assert_checked_form(x):
    # what CyclicBurnside(...) would have built: positive int keys, nonzero
    # int values, and the equality and hash that rely on a dict without zeros
    assert all(type(k) is int and k >= 1 and type(c) is int and c for k, c in x.coeffs.items())
    rebuilt = CyclicBurnside(dict(x.coeffs))
    assert x == rebuilt and hash(x) == hash(rebuilt)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 14).flatmap(lambda n: st.sampled_from(partitions(n))),
    st.integers(0, 6).flatmap(lambda n: st.sampled_from(partitions(n))),
    st.integers(1, 12),
)
def test_values_built_without_checks_are_in_checked_form(parts, other, d):
    # every route, the norm-one class and the ring operations build their
    # coefficients through the constructor that only drops zeros
    spec = AlgebraSpec(parts)
    classes = [norm_one_class(spec)]
    for route in ROUTES:
        try:
            classes.append(route(spec))
        except OutsideDomain:
            pass
    classes.append(classes[-1] * class_via_lambda(AlgebraSpec(other)))
    values = [c for tc in classes for c in tc.coeffs]
    y = spec_class(AlgebraSpec(other)) - 1
    for x in values:
        for z in (x, x.base_change(d), -x, x + y, x - y, x - x, x * y, y * x):
            _assert_checked_form(z)


def test_monicity_enforced():
    with pytest.raises(ValueError):
        TorusClass(1, (CyclicBurnside.orbit(2), CyclicBurnside.ONE))
    with pytest.raises(ValueError):
        TorusClass(1, (CyclicBurnside.ONE,))


# one value of each immutable value class
each_value_class = pytest.mark.parametrize(
    "value",
    [
        CyclicBurnside({1: 1, 2: -1}),
        BENCHMARKS[(2, 2)],
        torus_coefficient(3, 1),
        AlgebraSpec((2, 1)),
    ],
    ids=["CyclicBurnside", "TorusClass", "SchurElement", "AlgebraSpec"],
)


@each_value_class
def test_values_refuse_attribute_assignment_and_deletion(value):
    # hashes, equality and the memo tables holding these values rely on
    # their attributes never changing
    names = type(value).__slots__
    assert names
    message = f"{type(value).__name__} is immutable"
    for name in names:
        before = getattr(value, name)
        with pytest.raises(AttributeError, match=message):
            setattr(value, name, before)
        with pytest.raises(AttributeError, match=message):
            delattr(value, name)
        assert getattr(value, name) is before


@each_value_class
@pytest.mark.parametrize(
    "duplicate",
    [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_values_survive_copy_and_pickle(value, duplicate):
    # restoring the state of a copy must not trip the refusal of assignment
    twin = duplicate(value)
    names = type(value).__slots__
    assert all(getattr(twin, name) == getattr(value, name) for name in names)
    assert twin == value and hash(twin) == hash(value)
    with pytest.raises(AttributeError, match=f"{type(value).__name__} is immutable"):
        setattr(twin, names[0], getattr(value, names[0]))


@each_value_class
def test_values_equal_only_values_of_their_class(value):
    # equality compares slots, but only with an instance of the same class:
    # neither the plain tuple of the slot values nor another class's value
    slots = tuple(getattr(value, name) for name in type(value).__slots__)
    assert value != slots and slots != value
    other = AlgebraSpec((2, 1)) if not isinstance(value, AlgebraSpec) else torus_coefficient(3, 1)
    assert value != other and other != value


def test_slotted_values_have_no_instance_dict():
    # the shared immutable base has empty slots, so it adds no __dict__
    values = (
        CyclicBurnside.ONE,
        BENCHMARKS[(2, 2)],
        torus_coefficient(3, 1),
        AlgebraSpec((2, 1)),
    )
    for value in values:
        assert not hasattr(value, "__dict__")


def test_degree_must_be_a_nonnegative_int():
    # a bool or a float degree is refused as a value, not accepted as 1 or
    # left to fail with a TypeError; degree 0 is the zero algebra's class
    point = TorusClass(0, (CyclicBurnside.ONE,))
    assert point.to_json() == {"n": 0, "coeffs": [{"power": 0, "artin": {"1": 1}}]}
    for n in (True, 1.0, -1):
        with pytest.raises(ValueError, match="n="):
            TorusClass(n, (CyclicBurnside.ONE, CyclicBurnside.ZERO))


def test_point_count_examples():
    assert BENCHMARKS[(2,)].count_points(3, 1) == 8
    assert BENCHMARKS[(2,)].count_points(3, 2) == 64
    assert point_count_oracle(AlgebraSpec((3,)), 2, 1) == 7
    assert point_count_oracle(AlgebraSpec((2, 2)), 2, 1) == 9
    assert point_count_oracle(AlgebraSpec((2,)), 2, 2) == 9
    for q in (2, 3, 5):
        for e in (1, 2, 3):
            assert class_via_lambda(AlgebraSpec((1,))).count_points(q, e) == q**e - 1


def test_point_counts_match_oracle_on_a_grid():
    for n in range(1, 6):
        for parts in partitions(n):
            spec = AlgebraSpec(parts)
            tc = class_via_lambda(spec)
            for q in (2, 3, 5):
                for e in (1, 2, 3):
                    assert tc.count_points(q, e) == point_count_oracle(spec, q, e)


def _mark_faults(parts, tc):
    """The divisors d of lcm(parts) at which tc's marks, read as a
    polynomial in Q = q^d, differ from prod_j (Q^(n_j / g_j) - 1)^(g_j),
    g_j = gcd(n_j, d): the point count of the units over the degree-d
    extension with q kept as a variable.  A class whose orbit sizes divide
    the lcm is determined by these marks, so this checks every one of them."""
    lcm = math.lcm(*parts)
    faults = []
    for d in filter(lambda d: lcm % d == 0, range(1, lcm + 1)):
        expected = [1]
        for nj in parts:
            g = math.gcd(nj, d)
            for _ in range(g):
                # times Q^(nj / g) - 1
                shifted = [0] * (nj // g) + expected
                expected = [a - b for a, b in zip(shifted, expected + [0] * (nj // g))]
        if [a.mark(d) for a in reversed(tc.coeffs)] != expected:
            faults.append(d)
    return faults


def test_every_mark_is_the_point_count_polynomial():
    # every route's class, 815 of them: n <= 12, and six prime fields past
    # rho's domain; the marks at d = 1, 2, 3 are all that counts at e <= 3 see
    cases = [(route, parts) for route in ROUTES for n in range(1, 13) for parts in partitions(n)]
    cases += [(route, (13, 11, 7, 5, 3, 2)) for route in (class_via_lambda, class_via_recursion)]
    assert len(cases) == 815
    for route, parts in cases:
        tc = route(AlgebraSpec(parts))
        lcm = math.lcm(*parts)
        assert all(lcm % k == 0 for a in tc.coeffs for k in a.coeffs), (route, parts)
        assert _mark_faults(parts, tc) == [], (route, parts)


def test_a_fault_that_the_counting_grid_misses_fails_a_mark():
    # [4] added to the L^(n-2) coefficient of the (4, 2) class changes no
    # count at e <= 3, verify's default grid, but changes the mark at 4
    spec = AlgebraSpec((4, 2))
    coeffs = list(class_via_lambda(spec).coeffs)
    coeffs[2] += CyclicBurnside({4: 1})
    faulty = TorusClass(spec.n, coeffs)
    for q in (2, 3, 4, 5):
        for e in (1, 2, 3):
            assert faulty.count_points(q, e) == point_count_oracle(spec, q, e)
    assert _mark_faults(spec.parts, faulty) == [4]


@pytest.mark.parametrize("parts", [(2,) * 12, (3,) * 10, (6, 6, 6, 6, 4, 4, 4)], ids=str)
@pytest.mark.parametrize("route", ROUTES, ids=lambda route: route.__name__)
def test_routes_match_oracles_on_repeated_parts(parts, route):
    # a repeated degree is one isotypic block of the recursion route
    spec = AlgebraSpec(parts)
    tc = route(spec)
    assert tc.char_poly() == char_poly_oracle(spec)
    for q in (2, 3, 4, 5):
        for e in (1, 2, 3):
            assert tc.count_points(q, e) == point_count_oracle(spec, q, e), (q, e)


def test_point_count_input_validation():
    tc = BENCHMARKS[(2,)]
    with pytest.raises(ValueError):
        tc.count_points(1, 1)
    for e in (0, True, 1.5):
        with pytest.raises(ValueError):
            tc.count_points(3, e)
        with pytest.raises(ValueError):
            point_count_oracle(AlgebraSpec((2,)), 3, e)


def test_point_counts_need_a_field_size():
    tc = BENCHMARKS[(2,)]
    for q in (0, 1, True, 6, 10, 12, 4.5, 2.0):
        with pytest.raises(ValueError):
            tc.count_points(q, 1)
        with pytest.raises(ValueError):
            point_count_oracle(AlgebraSpec((2,)), q, 1)
    assert tc.count_points(8, 1) == point_count_oracle(AlgebraSpec((2,)), 8, 1) == 63


def test_norm_one_examples():
    assert norm_one_class(AlgebraSpec((1,))) == _tc(0, {1: 1})
    assert norm_one_class(AlgebraSpec((2,))) == _tc(1, {1: 1}, {2: -1, 1: 1})
    with pytest.raises(ValueError):
        norm_one_class(AlgebraSpec(()))


def test_norm_one_times_lefschetz_minus_one():
    l_minus_1 = _tc(1, {1: 1}, {1: -1})
    for n in range(1, 6):
        for parts in partitions(n):
            spec = AlgebraSpec(parts)
            assert l_minus_1 * norm_one_class(spec) == class_via_lambda(spec)


def test_norm_one_point_counts_divide_exactly():
    for n in range(1, 5):
        for parts in partitions(n):
            spec = AlgebraSpec(parts)
            tc = norm_one_class(spec)
            for q in (2, 3, 4):
                for e in (1, 2, 3):
                    units = point_count_oracle(spec, q, e)
                    assert units % (q**e - 1) == 0
                    assert tc.count_points(q, e) == units // (q**e - 1)


def test_lambda_and_norm_one_routes_at_large_n():
    # beyond the materializing range: one field of degree 14 or 20, the
    # split algebra of dimension 30, and lcm 30030 over six fields
    l_minus_1 = _tc(1, {1: 1}, {1: -1})
    for parts in [(14,), (20,), (1,) * 30, (13, 11, 7, 5, 3, 2)]:
        spec = AlgebraSpec(parts)
        tc = class_via_lambda(spec)
        assert tc.char_poly() == char_poly_oracle(spec)
        for q in range(2, 6):
            for e in range(1, 4):
                assert tc.count_points(q, e) == point_count_oracle(spec, q, e)
        assert l_minus_1 * norm_one_class(spec) == tc


def test_lambda_route_at_256_divisors():
    # eight fields of prime degree: lcm 9,699,690 has 2^8 divisors, a
    # size where inverting marks divisor by divisor used to dominate
    parts = (19, 17, 13, 11, 7, 5, 3, 2)
    assert len(divisors(math.lcm(*parts))) == 256
    spec = AlgebraSpec(parts)
    tc = class_via_lambda(spec)
    assert tc.char_poly() == char_poly_oracle(spec)
    for q in (2, 3, 4):
        for e in (1, 2, 3):
            assert tc.count_points(q, e) == point_count_oracle(spec, q, e)


def test_norm_one_route_at_large_n():
    # one field of degree 720 (30 divisors, truncation 719), six fields of
    # even degree, and ten fields of prime degree (1,024 divisors)
    l_minus_1 = _tc(1, {1: 1}, {1: -1})
    for parts in [(720,), (12, 10, 8, 6, 4, 2), (29, 23, 19, 17, 13, 11, 7, 5, 3, 2)]:
        spec = AlgebraSpec(parts)
        tc = norm_one_class(spec)
        assert l_minus_1 * tc == class_via_lambda(spec)
        for q in (2, 3):
            for e in (1, 2):
                assert tc.count_points(q, e) * (q**e - 1) == point_count_oracle(spec, q, e)


def _shape(tau):
    # a cycle type as the rho route hands it to _rho_marks: (length, count)
    # pairs, longest cycles first
    return tuple(sorted(Counter(tau).items(), reverse=True))


def test_dp_marks_are_the_schur_marks():
    # the rho route's dynamic program against the Schur ring's marks of the
    # universal coefficients, at every cycle type of n <= 10
    for n in range(1, 11):
        rhos = [torus_coefficient(n, i) for i in range(1, n + 1)]
        for tau in partitions(n):
            marks = _rho_marks(_shape(tau))
            assert len(marks) == n
            for i, rho in enumerate(rhos, 1):
                assert marks[i - 1] == rho._mark(tau)


def test_dp_marks_are_the_coefficients_of_the_cycle_product():
    # the paper's theorem at one mark: mark(rho_i) at a permutation of cycle
    # type tau is the coefficient of x^i in prod_c (1 - x^c), over its cycles.
    # This is a test oracle only: rho must never compute its marks this way,
    # or it stops being independent of the lambda route.
    checked = 0
    for n in range(1, 19):
        for tau in partitions(n):
            poly = [1] + [0] * n
            for c in tau:
                for i in range(n, c - 1, -1):
                    poly[i] -= poly[i - c]
            assert _rho_marks(_shape(tau)) == tuple(poly[1:]), tau
            checked += 1
    assert checked == 1596


def test_one_restriction_pass_matches_one_call_per_coefficient():
    # the rho route's classes, from the dynamic program's marks, against
    # the Schur path: each coefficient must equal the restriction of the
    # universal coefficient, and its per-divisor form, on all 271
    # partitions of n <= 12
    for n in range(1, 13):
        rhos = [torus_coefficient(n, i) for i in range(1, n + 1)]
        for parts in partitions(n):
            divs = divisors(math.lcm(*parts))
            got = class_via_universal(AlgebraSpec(parts)).coeffs
            assert len(got) == n + 1
            for rho, coeff in zip(rhos, got[1:]):
                assert coeff == restrict(rho, parts)
                marks = {d: rho.mark(power_cycle_type(parts, d)) for d in divs}
                assert coeff == from_marks(marks)


@st.composite
def _partitions_up_to(draw, n_max):
    parts, left = [], draw(st.integers(1, n_max))
    while left:
        parts.append(draw(st.integers(1, left)))
        left -= parts[-1]
    return tuple(parts)


@settings(max_examples=40, deadline=None)
@given(_partitions_up_to(40))
def test_rho_answers_and_agrees_or_declines_fast(parts):
    # up to n = 40 every input is within the estimate today; one outside it
    # must be declined before any dynamic program runs
    spec = AlgebraSpec(parts)
    start = time.perf_counter()
    try:
        tc = class_via_universal(spec)
    except OutsideDomain:
        assert time.perf_counter() - start < 0.1
        return
    assert tc == class_via_lambda(spec) == class_via_recursion(spec)


def test_rho_declines_a_huge_field_without_building_its_power_types():
    # the d-th power of a (10^20 - 1)-cycle is d cycles of length n / d, one
    # distinct type per divisor d, so the estimate is n * sum(d^2) / 2; a
    # type spelt out would have up to 10^20 entries
    n = 10**20 - 1
    estimate = n * sum(d * d for d in divisors(n)) // 2
    # two fields of prime degree near 10^8, whose powers have 2, p + 1,
    # q + 1 and p + q cycles: trial division of the lcm p q would run to
    # 10^8, but each part on its own stops at its square root
    p, q = 100000007, 99999989
    two_primes = (p + q) * (2**2 + (p + 1) ** 2 + (q + 1) ** 2 + (p + q) ** 2) // 2
    # pinned: the estimate does not depend on how the divisors are found
    assert f"{two_primes:,}" == "5,999,999,680,000,022,399,999,632"
    for parts, cost in [((n,), estimate), ((p, q), two_primes)]:
        start = time.perf_counter()
        with pytest.raises(OutsideDomain) as excinfo:
            class_via_universal(AlgebraSpec(parts))
        assert time.perf_counter() - start < 1
        assert str(excinfo.value) == f"mark DP estimate {cost:,} > 10,000,000"


def test_recursion_route_at_large_n():
    # beyond the reach of a walk over the subsets of a fiber
    for parts in [
        (20,),
        (24,),
        (9, 7),
        (8, 5, 3),
        (11, 7, 5),
        (4, 4, 2, 2, 1, 1),
        (1,) * 16,
        (13, 11, 7, 5, 3, 2),
        (30, 24, 20),
        (6, 5, 4, 3, 2, 1),
    ]:
        spec = AlgebraSpec(parts)
        tc = class_via_recursion(spec)
        assert tc == class_via_lambda(spec)
        assert tc.char_poly() == char_poly_oracle(spec)
        for q in (2, 3):
            for e in (1, 2):
                assert tc.count_points(q, e) == point_count_oracle(spec, q, e)


def test_char_poly_examples():
    assert BENCHMARKS[(2,)].char_poly() == (-1, 0, 1)
    assert class_via_lambda(AlgebraSpec((1, 1))).char_poly() == (1, -2, 1)
    # (X^3 - 1)(X^2 - 1) = X^5 - X^3 - X^2 + 1, ascending
    assert char_poly_oracle(AlgebraSpec((3, 2))) == (1, 0, -1, -1, 0, 1)


def test_char_poly_matches_factored_oracle():
    for n in range(1, 7):
        for parts in partitions(n):
            spec = AlgebraSpec(parts)
            assert class_via_lambda(spec).char_poly() == char_poly_oracle(spec)


def _from_payload(payload):
    # the JSON names every nonzero coefficient by its power, so it determines the class
    coeffs = [CyclicBurnside.ZERO] * (payload["n"] + 1)
    for entry in payload["coeffs"]:
        artin = CyclicBurnside({int(k): c for k, c in entry["artin"].items()})
        coeffs[payload["n"] - entry["power"]] = artin
    return TorusClass(payload["n"], coeffs)


def test_json_roundtrip_and_layout():
    for parts, tc in BENCHMARKS.items():
        payload = tc.to_json()
        powers = [entry["power"] for entry in payload["coeffs"]]
        assert powers == sorted(powers, reverse=True)
        assert _from_payload(payload) == tc
    sparse = TorusClass(2, (CyclicBurnside.ONE, CyclicBurnside.ZERO, -CyclicBurnside.ONE))
    payload = sparse.to_json()
    assert [entry["power"] for entry in payload["coeffs"]] == [2, 0]
    assert _from_payload(payload) == sparse


def test_text_rendering_of_benchmarks():
    assert BENCHMARKS[(2,)].text() == "L^2 - [Spec F_q^2]·L + [Spec F_q^2] - 1"
    assert (
        BENCHMARKS[(4,)].text()
        == "L^4 - [Spec F_q^4]·L^3 + (2·[Spec F_q^4] - [Spec F_q^2])·L^2 - [Spec F_q^4]·L + [Spec F_q^2] - 1"
    )
    assert (
        BENCHMARKS[(2, 2)].text()
        == "L^4 - 2·[Spec F_q^2]·L^3 + (4·[Spec F_q^2] - 2)·L^2 - 2·[Spec F_q^2]·L + 1"
    )


def test_latex_rendering_mentions_lefschetz_and_fields():
    tex = BENCHMARKS[(4,)].latex()
    assert r"\mathbb{L}^{4}" in tex
    assert r"[\operatorname{Spec}\mathbb{F}_{q^{4}}]" in tex


def test_stratum_index_bounds():
    spec = AlgebraSpec((3,))
    assert recursion_stratum_base(spec, (3,)) == CyclicBurnside.ONE
    with pytest.raises(ValueError):
        recursion_stratum_base(spec, (0,))
    with pytest.raises(ValueError):
        recursion_stratum_base(spec, (4,))
    # after peeling 2 of 3 points only the last one is left to vanish
    with pytest.raises(ValueError):
        recursion_stratum_base(spec, (2, 2))


def _materialised_stratum_types(b, tau, i):
    """Component types of stratum i of the fibered piece of type (b, tau),
    built point by point.  The piece is b copies of a fiber of sum(tau)
    points; the generator steps to the next copy and, from the last one,
    back to the first through a permutation of cycle type tau.  The
    stratum's base is the set of (copy, i-subset of the fiber) pairs; each
    base orbit gives its size and the cycle type of the return map on the
    fiber points outside the subset."""
    r = sum(tau)
    sigma = perm_of_cycle_type(tau)

    def step(j, x):
        return (j + 1, x) if j + 1 < b else (0, sigma[x])

    def step_pair(j, subset):
        return (j + 1, subset) if j + 1 < b else (0, tuple(sorted(sigma[x] for x in subset)))

    labels = [(j, subset) for j in range(b) for subset in combinations(range(r), i)]
    index = {label: k for k, label in enumerate(labels)}
    base = FiniteGSet(len(labels), ([index[step_pair(*label)] for label in labels],), labels)
    types = Counter()
    for orbit in orbits(base):
        j, subset = orbit.labels[0]
        fiber = [x for x in range(r) if x not in subset]
        position = {x: k for k, x in enumerate(fiber)}
        returned = []
        for x in fiber:
            point = (j, x)
            for _ in range(orbit.size):
                point = step(*point)
            assert point[0] == j
            returned.append(position[point[1]])
        types[(orbit.size, cycle_type(returned))] += 1
    return types


def _isotypic_types(r):
    """The (t, a) with a t = r: a cycles of length t."""
    return [(t, r // t) for t in divisors(r)]


def test_stratum_types_match_materialised_strata():
    for r in range(1, 8):
        for t, a in _isotypic_types(r):
            strata = _stratum_types(t, a)
            for i in range(1, r):
                for b in (1, 2, 3):
                    expected = _materialised_stratum_types(b, (t,) * a, i)
                    got = Counter({(b * m, (t2,) * a2): c for m, t2, a2, c in strata[i]})
                    assert got == expected, (b, t, a, i)


def test_stratum_types_match_the_subset_walk():
    for r in range(1, 13):
        for t, a in _isotypic_types(r):
            strata = _stratum_types(t, a)
            assert len(strata) == r + 1
            # the empty subset and the whole fiber are fixed by sigma
            assert strata[0] == [(1, t, a, 1)] and strata[r] == [(1, t, 0, 1)]
            for i in range(1, r):
                got = Counter({(m, (t2,) * a2): c for m, t2, a2, c in strata[i]})
                assert got == subset_walk_stratum_types((t,) * a, i), (t, a, i)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 60).flatmap(lambda t: st.tuples(st.just(t), st.integers(1, 60 // t))))
def test_isotypic_strata_partition_the_subsets(block):
    # every s-subset of the fiber lies in exactly one orbit, of length m
    # dividing t, and leaves a' cycles of length t' = t / m on the rest
    t, a = block
    r = a * t
    strata = _stratum_types(t, a)
    assert len(strata) == r + 1
    for s, entries in enumerate(strata):
        assert sum(m * count for m, _, _, count in entries) == math.comb(r, s), (t, a, s)
        for m, t2, a2, count in entries:
            assert t % m == 0 and t2 == t // m and t2 * a2 == r - s and count > 0


def test_units_of_type_terms_are_nonzero_and_in_range():
    # the memo holds each class as its nonzero terms (i, k, c): c [k] in the
    # coefficient of L^(r - i), orbits of F_{q^t}^a dividing t, monic first
    for r in range(1, 31):
        for t, a in _isotypic_types(r):
            terms = _units_of_type(t, a)
            assert terms[0] == (0, 1, 1), (t, a)
            for i, k, c in terms:
                assert type(c) is int and c != 0, (t, a)
                assert 0 <= i <= a * t and t % k == 0, (t, a, i, k)
            assert [i for i, _, _ in terms] == sorted(i for i, _, _ in terms)


@cache
def _units_over_orbit(b, tau):
    """The recursion keyed on the base orbit size b as well as tau: affine
    r-space over a b-orbit minus its strata, with the strata's types taken
    from the subset walk."""
    r = sum(tau)
    base = CyclicBurnside.orbit(b)
    if r == 0:
        return (base,)
    poly = [CyclicBurnside.ZERO] * (r + 1)
    poly[r] = base
    poly[0] = -base
    for i in range(1, r):
        for (m, rest), count in subset_walk_stratum_types(tau, i).items():
            for j, c in enumerate(_units_over_orbit(b * m, rest)):
                poly[j] = poly[j] - count * c
    return tuple(poly)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 8).flatmap(lambda r: st.sampled_from(partitions(r))),
    st.sampled_from((1, 2, 3, 6)),
)
def test_units_of_type_is_induced_along_the_base_orbit(tau, b):
    # a piece over a b-orbit is induced from the index-b subgroup, which
    # sends [k] to [b k] in every coefficient
    assert _units_over_orbit(b, tau) == tuple(
        induce(c, b) for c in reversed(class_via_recursion(AlgebraSpec(tau)).coeffs)
    )


@cache
def _unfactored_units_of_type(tau):
    """The recursion without factoring over cycle lengths: every type,
    mixed ones included, is stratified, with the strata's types taken
    from the subset walk."""
    r = sum(tau)
    if r == 0:
        return (CyclicBurnside.ONE,)
    poly = [{} for _ in range(r + 1)]
    poly[r][1] = 1
    poly[0][1] = -1
    for i in range(1, r):
        for (m, rest), count in subset_walk_stratum_types(tau, i).items():
            for j, c in enumerate(_unfactored_units_of_type(rest)):
                for k, v in c.coeffs.items():
                    poly[j][m * k] = poly[j].get(m * k, 0) - count * v
    return tuple(CyclicBurnside(p) for p in poly)


def test_factored_recursion_matches_unfactored_to_n_12():
    checked = 0
    for n in range(1, 13):
        for parts in partitions(n):
            poly = _unfactored_units_of_type(parts)
            expected = TorusClass(n, tuple(poly[n - i] for i in range(n + 1)))
            assert class_via_recursion(AlgebraSpec(parts)) == expected, parts
            checked += 1
    assert checked == 271


def test_stratum_bases_match_restricted_tuple_classes():
    for n in range(1, 7):
        for parts in partitions(n):
            spec = AlgebraSpec(parts)
            for w in range(1, n):
                for alpha in compositions(w):
                    assert recursion_stratum_base(spec, alpha) == restrict(
                        tuple_set_class(n, alpha), parts
                    )


def test_first_stratum_base_of_the_quartic_field():
    # peeling pairs off a quartic field point splits as a 4-orbit plus a 2-orbit
    got = recursion_stratum_base(AlgebraSpec((4,)), (2,))
    assert got == CyclicBurnside({4: 1, 2: 1})


def test_spec_class_marks_count_points_of_spec():
    # a degree-n factor has n points over the degree-e extension when n
    # divides e, none otherwise
    for parts in [(2,), (3, 1), (2, 2, 1)]:
        x = spec_class(AlgebraSpec(parts))
        for e in range(1, 7):
            assert x.mark(e) == sum(nj for nj in parts if e % nj == 0)
