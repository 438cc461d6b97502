"""Tuple-class subring: mark matrix, universal coefficients, restriction."""

import random
from collections import Counter
from functools import cache
from itertools import combinations

import pytest
from hypothesis import given, settings
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
from torusclass.cyclic import CyclicBurnside
from torusclass.schur import (
    DEGREE_BOUND,
    MarkMatrix,
    SchurElement,
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
    m = mark_matrix(2)
    assert entry(m, (2,), (2,)) == 1
    assert entry(m, (1, 1), (2,)) == 0
    assert entry(m, (1, 1), (1, 1)) == 2
    assert entry(mark_matrix(4), (2, 2), (2, 2)) == 2


def test_mark_matrix_identity_column_is_multinomial():
    for n in range(1, 7):
        m = mark_matrix(n)
        for mu in m.index:
            assert entry(m, mu, (1,) * n) == multinomial(n, mu)


def test_mark_matrix_matches_brute_force():
    for n in range(1, 6):
        m = mark_matrix(n)
        for mu in m.index:
            for lam in m.index:
                assert entry(m, mu, lam) == _brute_force_mark(n, mu, lam)


def test_mark_matrix_bounds():
    with pytest.raises(ValueError):
        mark_matrix(0)
    with pytest.raises(ValueError):
        mark_matrix(DEGREE_BOUND + 1)


@pytest.mark.parametrize(
    "build",
    [
        mark_matrix,
        MarkMatrix,
        Ring.zero,
        Ring.unit,
        lambda n: SchurElement(n, {}),
        lambda n: SchurElement.from_basis(n, {}),
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
        for i, mu in enumerate(m.index):
            assert m.entries[i][i] != 0
            for j, lam in enumerate(m.index):
                assert (m.entries[i][j] != 0) == (mu in _coarsenings(lam)), (mu, lam)
                if i > j:
                    assert m.entries[i][j] == 0


def test_tuple_set_class_padding_and_sorting():
    assert tuple_set_class(4, (2,)) == SchurElement.from_basis(4, {(2, 2): 1})
    assert tuple_set_class(4, (1,)) == SchurElement.from_basis(4, {(3, 1): 1})
    assert tuple_set_class(3, (1, 2)) == SchurElement.from_basis(3, {(2, 1): 1})
    assert tuple_set_class(4, (2,)) == tuple_set_class(4, (2, 2))
    with pytest.raises(ValueError):
        tuple_set_class(3, (2, 2))


def test_an_element_equal_to_an_int_hashes_like_it():
    for n in (1, 4):
        for m in (-2, 0, 1, 3):
            x = Ring.from_basis(n, {(n,): m})
            assert x == m and hash(x) == hash(m)
            assert m in {x} and x in {m}
    x = torus_coefficient(4, 2)
    assert hash(x) == hash(SchurElement.from_basis(4, x.basis))


def test_bool_rejected_as_an_integer():
    # bool is an int subclass; it must not pass as a coefficient or size
    unit = Ring.unit(3)
    with pytest.raises(TypeError):
        unit + True
    with pytest.raises(TypeError):
        unit * True
    assert unit != True  # noqa: E712
    with pytest.raises(ValueError):
        SchurElement.from_basis(3, {(3,): True})
    # the constructor is the one way in, and it checks like from_basis
    with pytest.raises(ValueError):
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
    assert x * x == SchurElement.from_basis(2, {(1, 1): 2})


def test_multiplication_closure_on_random_pairs():
    rng = random.Random(41)
    for n in range(2, 6):
        parts = partitions(n)
        for _ in range(8):
            x = Ring.from_basis(
                n, {mu: rng.randint(-2, 2) for mu in parts}
            )
            y = Ring.from_basis(
                n, {mu: rng.randint(-2, 2) for mu in parts}
            )
            z = x * y
            for lam in parts:
                assert z.mark(lam) == x.mark(lam) * y.mark(lam)


def test_from_marks_rejects_off_lattice_vectors():
    with pytest.raises(ArithmeticError):
        SchurElement.from_marks(2, {(1, 1): 1, (2,): 0})


elements = st.integers(1, DEGREE_BOUND).flatmap(
    lambda n: st.builds(
        SchurElement.from_basis,
        st.just(n),
        st.dictionaries(st.sampled_from(partitions(n)), st.integers(-3, 3), max_size=6),
    )
)


@settings(max_examples=40, deadline=None)
@given(elements)
def test_derived_marks_are_mark_matrix_row_sums(x):
    m = mark_matrix(x.n)
    marks = x.marks
    assert list(marks) == list(m.index)
    for lam in m.index:
        assert marks[lam] == sum(c * entry(m, mu, lam) for mu, c in x.basis.items())
    assert SchurElement.from_marks(x.n, marks) == x


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
    assert torus_coefficient(2, 2) == SchurElement.from_basis(2, {(1, 1): 1, (2,): -1})
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
            signed = sign * Ring.from_basis(n, lambda_standard(n, i).basis)
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
        SchurElement.from_basis(2, {(True, True): 1})


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
            x = Ring.from_basis(n, {mu: rng.randint(-2, 2) for mu in parts})
            y = Ring.from_basis(n, {mu: rng.randint(-2, 2) for mu in parts})
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
