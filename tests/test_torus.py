"""Unit-torus classes: three routes, strata, counting, rendering."""

import math
from collections import Counter
from functools import cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusclass.combinatorics import compositions, partitions
from torusclass.cyclic import CyclicBurnside
from torusclass.gsets import FiniteGSet, cycle_type, orbits, perm_of_cycle_type
from torusclass.schur import restrict_to_cyclic, tuple_set_class
from torusclass.torus import (
    AlgebraSpec,
    TorusClass,
    _stratum_types,
    _units_of_type,
    char_poly_oracle,
    class_via_lambda,
    class_via_recursion,
    class_via_universal,
    norm_one_class,
    point_count_oracle,
    recursion_stratum_base,
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


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 10).flatmap(lambda n: st.sampled_from(partitions(n))),
    st.integers(1, 6),
    st.sampled_from(ROUTES),
)
def test_base_change_splits_each_factor(parts, d, route):
    # over the degree-d extension a field of degree n_j splits into
    # gcd(n_j, d) fields of degree n_j / gcd(n_j, d)
    split = [nj // math.gcd(nj, d) for nj in parts for _ in range(math.gcd(nj, d))]
    got = tuple(c.base_change(d) for c in route(AlgebraSpec(parts)).coeffs)
    assert got == route(AlgebraSpec(split)).coeffs


def test_squaring_the_quadratic_class():
    assert BENCHMARKS[(2, 2)] == BENCHMARKS[(2,)] * BENCHMARKS[(2,)]


def test_monicity_enforced():
    with pytest.raises(ValueError):
        TorusClass(1, (CyclicBurnside.orbit(2), CyclicBurnside.ONE))
    with pytest.raises(ValueError):
        TorusClass(1, (CyclicBurnside.ONE,))


def test_coefficient_accessor():
    tc = BENCHMARKS[(4,)]
    assert tc.coefficient(2) == CyclicBurnside({4: 2, 2: -1})
    assert tc.coefficient(4) == CyclicBurnside.ONE
    with pytest.raises(ValueError):
        tc.coefficient(5)


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


def test_point_count_input_validation():
    tc = BENCHMARKS[(2,)]
    with pytest.raises(ValueError):
        tc.count_points(1, 1)
    with pytest.raises(ValueError):
        tc.count_points(2, 0)


def test_point_counts_need_a_field_size():
    tc = BENCHMARKS[(2,)]
    for q in (0, 1, True, 6, 10, 12):
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


def test_json_roundtrip_and_layout():
    for parts, tc in BENCHMARKS.items():
        payload = tc.to_json()
        powers = [entry["power"] for entry in payload["coeffs"]]
        assert powers == sorted(powers, reverse=True)
        assert TorusClass.from_json(payload) == tc
    sparse = TorusClass(2, (CyclicBurnside.ONE, CyclicBurnside.ZERO, -CyclicBurnside.ONE))
    payload = sparse.to_json()
    assert [entry["power"] for entry in payload["coeffs"]] == [2, 0]
    assert TorusClass.from_json(payload) == sparse


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


def test_stratum_types_match_materialised_strata():
    for r in range(1, 8):
        for tau in partitions(r):
            for i in range(1, r):
                for b in (1, 2, 3):
                    expected = _materialised_stratum_types(b, tau, i)
                    got = Counter({(b * m, rest): c for (m, rest), c in _stratum_types(tau)[i]})
                    assert got == expected, (b, tau, i)


@cache
def _subset_walk_stratum_types(tau, i):
    """Component types of stratum i of the piece over a point with return
    map of cycle type tau, by walking every i-subset of one fiber: each
    sigma-orbit of subsets, of length m, gives the type (m, cycle type of
    sigma^m on the complement)."""
    r = sum(tau)
    sigma = perm_of_cycle_type(tau)
    counts = Counter()
    pending = set()
    for subset in combinations(range(r), i):
        # subsets come in lexicographic order, so each orbit is first met
        # at its least member and every later member is met exactly once
        if subset in pending:
            pending.remove(subset)
            continue
        m = 1
        image = tuple(sorted(sigma[x] for x in subset))
        while image != subset:
            pending.add(image)
            image = tuple(sorted(sigma[x] for x in image))
            m += 1
        rest = [x for x in range(r) if x not in subset]
        position = {x: j for j, x in enumerate(rest)}
        power = []
        for x in rest:
            y = x
            for _ in range(m):
                y = sigma[y]
            power.append(position[y])
        counts[(m, cycle_type(power))] += 1
    return counts


def test_stratum_types_match_the_subset_walk():
    for r in range(1, 11):
        for tau in partitions(r):
            strata = _stratum_types(tau)
            assert len(strata) == r + 1
            # the empty subset and the whole fiber are fixed by sigma
            assert strata[0] == (((1, tau), 1),) and strata[r] == (((1, ()), 1),)
            for i in range(1, r):
                assert Counter(dict(strata[i])) == _subset_walk_stratum_types(tau, i), (tau, i)


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
        for (m, rest), count in _subset_walk_stratum_types(tau, i).items():
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
    assert _units_over_orbit(b, tau) == tuple(c.induce(b) for c in _units_of_type(tau))


@cache
def _unfactored_units_of_type(tau):
    """The recursion without factoring over cycle lengths: every type,
    mixed ones included, is stratified through _stratum_types."""
    r = sum(tau)
    if r == 0:
        return (CyclicBurnside.ONE,)
    poly = [{} for _ in range(r + 1)]
    poly[r][1] = 1
    poly[0][1] = -1
    strata = _stratum_types(tau)
    for i in range(1, r):
        for (m, rest), count in strata[i]:
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
                    assert recursion_stratum_base(spec, alpha) == restrict_to_cyclic(
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
