"""Tuple-class subring: mark matrix, universal coefficients, restriction."""

import random
import re
from collections import Counter
from functools import cache
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles.counting import compositions, lambda_from_sigma, multinomial
from oracles.gsets import (
    cyclic_decomposition,
    perm_of_cycle_type,
    power_tuple_set,
    tuple_set_permutation,
    with_single_generator,
)
from oracles.schur import Ring, entry, restrict, tuple_set_class
from torusclass.combinatorics import partitions
from torusclass import schur
from torusclass.cyclic import CyclicBurnside
from torusclass.schur import (
    DEGREE_BOUND,
    SchurElement,
    _assignments,
    lambda_standard,
    mark_matrix,
    torus_coefficient,
)
from torusclass.combinatorics import invariant_multiset_counts


def _brute_force_mark(n, mu, lam):
    # fixed points of an explicit permutation on the materialized tuple set
    a = power_tuple_set(n, mu)
    induced = tuple_set_permutation(a, perm_of_cycle_type(lam))
    return sum(1 for i, j in enumerate(induced) if i == j)


def test_mark_matrix_small_entries():
    assert mark_matrix(2) == ((1, 1), (0, 2))
    assert entry(2, (2,), (2,)) == 1
    assert entry(2, (1, 1), (2,)) == 0
    assert entry(2, (1, 1), (1, 1)) == 2
    assert entry(4, (2, 2), (2, 2)) == 2


def test_mark_matrix_identity_column_is_multinomial():
    for n in range(1, 7):
        for mu in partitions(n):
            assert entry(n, mu, (1,) * n) == multinomial(n, mu)


def test_mark_matrix_matches_brute_force():
    for n in range(1, 6):
        for mu in partitions(n):
            for lam in partitions(n):
                assert entry(n, mu, lam) == _brute_force_mark(n, mu, lam)


def test_mark_matrix_bounds():
    with pytest.raises(ValueError):
        mark_matrix(0)
    with pytest.raises(ValueError):
        mark_matrix(DEGREE_BOUND + 1)


@pytest.mark.parametrize(
    "build",
    [
        mark_matrix,
        Ring.zero,
        Ring.unit,
        lambda n: SchurElement(n, {}),
        lambda n: SchurElement(n, {(n,): 1}),
        lambda n: SchurElement.from_marks(n, {(1,): 1}),
        lambda n: tuple_set_class(n, (1,)),
        lambda n: torus_coefficient(n, 1),
        lambda n: lambda_standard(n, 1),
    ],
)
def test_degree_checked_at_every_entry_point(build):
    # the cached matrix for 1 must not be handed out for True
    build(1)
    for n in (True, False, 0, -1, DEGREE_BOUND + 1, 2.0):
        with pytest.raises(ValueError):
            build(n)


@pytest.mark.parametrize("build", [torus_coefficient, lambda_standard])
def test_weight_checked_at_every_entry_point(build):
    # a bool or a float weight is refused and named, not read as 1 or 0 or
    # left to fail inside the computation
    build(3, 1)
    for i in (True, False, 1.0, 2.0, -1, 4):
        with pytest.raises(ValueError, match=re.escape(f"i={i!r}")):
            build(3, i)


@cache
def _coarsenings(lam):
    """Every partition obtained by grouping the parts of lam, by merging
    two parts at a time."""
    out = {lam}
    for a, b in combinations(range(len(lam)), 2):
        rest = [p for k, p in enumerate(lam) if k not in (a, b)]
        out |= _coarsenings(tuple(sorted(rest + [lam[a] + lam[b]], reverse=True)))
    return frozenset(out)


def test_mark_matrix_is_triangular_with_nonzero_diagonal():
    # entry (mu, lam) counts fixed tuples, which exist exactly when the
    # cycles of lam can be grouped into the blocks of mu; refinement implies
    # lex order, so the lex-descending index makes the matrix triangular
    for n in range(1, 13):
        m = mark_matrix(n)
        index = partitions(n)
        for i, mu in enumerate(index):
            assert m[i][i] != 0
            for j, lam in enumerate(index):
                assert (m[i][j] != 0) == (mu in _coarsenings(lam)), (mu, lam)
                if i > j:
                    assert m[i][j] == 0


def test_tuple_set_class_padding_and_sorting():
    assert tuple_set_class(4, (2,)) == SchurElement(4, {(2, 2): 1})
    assert tuple_set_class(4, (1,)) == SchurElement(4, {(3, 1): 1})
    assert tuple_set_class(3, (1, 2)) == SchurElement(3, {(2, 1): 1})
    assert tuple_set_class(4, (2,)) == tuple_set_class(4, (2, 2))
    with pytest.raises(ValueError):
        tuple_set_class(3, (2, 2))


def test_an_element_equal_to_an_int_hashes_like_it():
    for n in (1, 4):
        for m in (-2, 0, 1, 3):
            x = Ring(n, {(n,): m})
            assert x == m and hash(x) == hash(m)
            assert m in {x} and x in {m}
    x = torus_coefficient(4, 2)
    assert hash(x) == hash(SchurElement(4, x.basis))


def test_bool_rejected_as_an_integer():
    # bool is an int subclass; it must not pass as a coefficient or size
    unit = Ring.unit(3)
    with pytest.raises(TypeError):
        unit + True
    with pytest.raises(TypeError):
        unit * True
    assert unit != True  # noqa: E712
    # the constructor is the one way in, and it checks every coefficient
    with pytest.raises(ValueError, match=r"^coefficient=True is not an integer$"):
        SchurElement(3, {(3,): True})
    with pytest.raises(ValueError):
        SchurElement(3, {(5,): 1})
    with pytest.raises(ValueError):
        tuple_set_class(3, (True, 2))
    assert unit + 1 == 2 * unit


def test_tuple_set_class_cardinalities():
    for n in range(1, 7):
        for w in range(1, n + 1):
            for comp in compositions(w):
                assert tuple_set_class(n, comp).cardinality == multinomial(n, comp)


def test_unit_element_has_all_marks_one():
    for n in range(1, 6):
        unit = Ring.unit(n)
        for lam in partitions(n):
            assert unit.mark(lam) == 1


def test_addition_and_negation():
    x = tuple_set_class(3, (1,))
    assert x - x == Ring.zero(3)
    assert x + x == 2 * x


def test_multiplication_of_free_pairs():
    # two marked points give twice the regular class
    x = tuple_set_class(2, (1,))
    assert x * x == SchurElement(2, {(1, 1): 2})


def test_multiplication_closure_on_random_pairs():
    rng = random.Random(41)
    for n in range(2, 6):
        parts = partitions(n)
        for _ in range(8):
            x = Ring(n, {mu: rng.randint(-2, 2) for mu in parts})
            y = Ring(n, {mu: rng.randint(-2, 2) for mu in parts})
            z = x * y
            for lam in parts:
                assert z.mark(lam) == x.mark(lam) * y.mark(lam)


def test_from_marks_rejects_off_lattice_vectors():
    with pytest.raises(ArithmeticError):
        SchurElement.from_marks(2, {(1, 1): 1, (2,): 0})


elements = st.integers(1, DEGREE_BOUND).flatmap(
    lambda n: st.builds(
        SchurElement,
        st.just(n),
        st.dictionaries(st.sampled_from(partitions(n)), st.integers(-3, 3), max_size=6),
    )
)


@settings(max_examples=40, deadline=None)
@given(elements)
def test_derived_marks_are_mark_matrix_row_sums(x):
    marks = x.marks
    assert list(marks) == partitions(x.n)
    for lam in partitions(x.n):
        assert marks[lam] == sum(c * entry(x.n, mu, lam) for mu, c in x.basis.items())
    assert SchurElement.from_marks(x.n, marks) == x


@settings(max_examples=40, deadline=None)
@given(elements, st.data())
def test_pull_back_fails_first_at_a_mark_off_the_lattice(x, data):
    # adding 1 to the mark at lam leaves the equations before lam alone, and
    # the one at lam is off by 1 from a multiple of _assignments(lam, lam) > 1
    candidates = [lam for lam in partitions(x.n) if _assignments(lam, lam) > 1]
    assume(candidates)
    lam = data.draw(st.sampled_from(candidates))
    marks = x.marks
    marks[lam] += 1
    with pytest.raises(ArithmeticError, match=re.escape(f"coefficient of {lam} is")):
        SchurElement.from_marks(x.n, marks)


def test_pull_back_builds_no_mark_table():
    # only the marks command builds the p(n)^2 table; the pull-back reads
    # the memoised counts it needs
    schur.mark_matrix.cache_clear()
    lambda_standard(DEGREE_BOUND, DEGREE_BOUND // 2)
    assert schur.mark_matrix.cache_info().currsize == 0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_basis_key_order_is_immaterial(data):
    # the basis is kept in one canonical order, so the order a caller lists
    # it in reaches neither equality, hashing, printing nor JSON
    n = data.draw(st.integers(1, 8))
    coeffs = data.draw(
        st.dictionaries(st.sampled_from(partitions(n)), st.integers(-3, 3), max_size=8)
    )
    shuffled = dict(data.draw(st.permutations(list(coeffs.items()))))
    x, y = SchurElement(n, coeffs), SchurElement(n, shuffled)
    assert x == y and hash(x) == hash(y)
    assert str(x) == str(y) and x.to_json() == y.to_json()
    assert list(x.basis) == [mu for mu in partitions(n) if coeffs.get(mu)]


def test_from_marks_requires_all_cycle_types():
    with pytest.raises(ValueError):
        SchurElement.from_marks(2, {(1, 1): 2})


def test_from_marks_rejects_stray_keys():
    x = torus_coefficient(3, 2)
    assert SchurElement.from_marks(3, x.marks) == x
    for stray in ((9,), "junk", (2, 2), (1, 2)):
        with pytest.raises(ValueError, match=re.escape(repr(stray))):
            SchurElement.from_marks(3, {**x.marks, stray: 5})
    with pytest.raises(ValueError, match=re.escape("(9,)")):
        SchurElement.from_marks(3, {**x.marks, (9,): 5, "junk": 1})


@pytest.mark.parametrize("mark", [True, 1.0, "1"], ids=repr)
def test_from_marks_checks_each_mark(mark):
    # a bool is not read as 1, and a float or a str is named as the mark at
    # its cycle type, not as a coefficient or left to fail in the arithmetic
    with pytest.raises(ValueError, match=re.escape(f"mark at (2,)={mark!r} is not an integer")):
        SchurElement.from_marks(2, {(2,): mark, (1, 1): 1})
    # a missing cycle type and a stray key are still named first
    with pytest.raises(ValueError, match=re.escape("missing cycle type (1, 1)")):
        SchurElement.from_marks(2, {(2,): mark})
    with pytest.raises(ValueError, match=re.escape("key (9,)")):
        SchurElement.from_marks(2, {(2,): mark, (1, 1): 1, (9,): 1})


def test_universal_coefficient_is_the_sum_over_compositions():
    # the defining sum: one tuple-set class per composition of i, signed by
    # its length
    for n in range(1, 11):
        for i in range(1, n + 1):
            expected = Ring.zero(n)
            for comp in compositions(i):
                expected += (-1) ** len(comp) * tuple_set_class(n, comp)
            assert torus_coefficient(n, i) == expected, (n, i)


def test_universal_coefficient_examples():
    assert torus_coefficient(2, 2) == SchurElement(2, {(1, 1): 1, (2,): -1})
    for n in range(1, 8):
        assert torus_coefficient(n, 1) == -tuple_set_class(n, (1,))
        assert torus_coefficient(n, 1).cardinality == -n
    with pytest.raises(ValueError):
        torus_coefficient(3, 0)
    with pytest.raises(ValueError):
        torus_coefficient(3, 4)


def test_alternating_power_examples():
    assert lambda_standard(2, 2).marks == {(1, 1): 1, (2,): -1}
    for n in range(1, 6):
        assert lambda_standard(n, 0) == Ring.unit(n)
        assert lambda_standard(n, 1) == tuple_set_class(n, (1,))


def test_alternating_powers_match_the_sigma_to_lambda_recursion():
    # lambda_standard reads lambda^i off the symmetric powers of the
    # negated set; the recursion on the symmetric-power marks must agree
    for n in range(1, 9):
        for i in range(n + 1):
            marks = {
                lam: lambda_from_sigma(invariant_multiset_counts(Counter(lam), i))[i]
                for lam in partitions(n)
            }
            assert lambda_standard(n, i).marks == marks


def test_top_alternating_power_is_the_sign():
    for n in range(1, 7):
        top = lambda_standard(n, n)
        for lam in partitions(n):
            assert top.mark(lam) == (-1) ** (n - len(lam))


def test_universal_coefficients_are_signed_alternating_powers():
    for n in range(1, 7):
        for i in range(1, n + 1):
            sign = -1 if i % 2 else 1
            signed = sign * Ring(n, lambda_standard(n, i).basis)
            assert torus_coefficient(n, i) == signed


def test_restriction_at_identity_and_of_unit():
    for n in range(1, 6):
        unit = Ring.unit(n)
        for lam in partitions(n):
            assert restrict(unit, lam) == CyclicBurnside.ONE
        x = torus_coefficient(n, 1)
        assert restrict(x, (1,) * n) == CyclicBurnside({1: x.cardinality})


def test_restriction_of_pair_subsets_at_a_four_cycle():
    got = restrict(tuple_set_class(4, (2,)), (4,))
    assert got == CyclicBurnside({4: 1, 2: 1})


def test_restriction_of_weight_two_coefficient_at_a_four_cycle():
    got = restrict(torus_coefficient(4, 2), (4,))
    assert got == CyclicBurnside({4: 2, 2: -1})


def test_restriction_matches_concrete_orbit_scan():
    for n in range(1, 6):
        for lam in partitions(n):
            sigma = perm_of_cycle_type(lam)
            for w in range(1, n + 1):
                for comp in compositions(w):
                    a = power_tuple_set(n, comp)
                    concrete = cyclic_decomposition(
                        with_single_generator(a, tuple_set_permutation(a, sigma))
                    )
                    assert restrict(tuple_set_class(n, comp), lam) == concrete


def test_cycle_types_must_have_positive_integer_parts():
    # (True, 1) would read as (1, 1) and (2.0,) would reach math.lcm
    unit = Ring.unit(2)
    for lam in ((True, 1), (2.0,), (1.5, 0.5), (3, -1), (0, 2)):
        with pytest.raises(ValueError):
            unit.mark(lam)
        with pytest.raises(ValueError):
            restrict(unit, lam)
    with pytest.raises(ValueError):
        SchurElement(2, {(True, True): 1})


def test_restriction_can_produce_orbits_larger_than_n():
    # a (3,2)-cycle acting on pairs-of-pairs reaches orbit size 6 > 5
    x = tuple_set_class(5, (2, 2, 1))
    restricted = restrict(x, (3, 2))
    assert restricted.coeffs.get(6, 0) > 0


def test_restriction_is_a_ring_map():
    rng = random.Random(43)
    for n in range(2, 7):
        parts = partitions(n)
        for _ in range(6):
            x = Ring(n, {mu: rng.randint(-2, 2) for mu in parts})
            y = Ring(n, {mu: rng.randint(-2, 2) for mu in parts})
            for lam in (parts[0], parts[-1], parts[len(parts) // 2]):
                rx = restrict(x, lam)
                ry = restrict(y, lam)
                assert restrict(x + y, lam) == rx + ry
                assert restrict(x * y, lam) == rx * ry


def test_rendering_and_json():
    x = torus_coefficient(4, 1)
    assert str(x) == "-1·[P_(3,1)]"
    payload = x.to_json()
    assert payload["n"] == 4
    assert payload["basis"] == {"3,1": -1}
    assert payload["marks"]["1,1,1,1"] == -4
    assert str(Ring.zero(3)) == "0"
