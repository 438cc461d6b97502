"""Concrete engine: orbits, fixed points, powers, tuple sets."""

import math

import pytest

from oracles.counting import compositions, multinomial
from oracles.gsets import (
    FiniteGSet,
    cycle_type,
    cyclic_decomposition,
    element_permutation,
    fixed_points,
    from_cycle_lengths,
    orbits,
    perm_of_cycle_type,
    power_tuple_set,
    product,
    symmetric_group_generators,
    symmetric_power,
    trivial_set,
    tuple_set_permutation,
    with_single_generator,
)
from torusclass.combinatorics import partitions
from torusclass.cyclic import CyclicBurnside


def test_constructor_rejects_non_permutation():
    with pytest.raises(ValueError):
        FiniteGSet(3, ((0, 0, 1),))
    with pytest.raises(ValueError):
        FiniteGSet(3, ((0, 1),))


def test_constructor_size_guard():
    with pytest.raises(ValueError):
        FiniteGSet(10**7 + 1, ())


def test_from_cycle_lengths_cycle_type_roundtrip():
    for n in range(1, 8):
        for lam in partitions(n):
            assert cycle_type(from_cycle_lengths(lam).generators[0]) == lam


def test_product_diagonal_swap():
    a = from_cycle_lengths((2,))
    p = product(a, a)
    assert p.size == 4
    assert fixed_points(p, (0,)) == 0
    assert sorted(orb.size for orb in orbits(p)) == [2, 2]


def test_product_coprime_cycles_single_orbit():
    p = product(from_cycle_lengths((2,)), from_cycle_lengths((3,)))
    assert [orb.size for orb in orbits(p)] == [6]


def test_product_with_point_preserves_structure():
    a = from_cycle_lengths((3, 2))
    p = product(a, trivial_set(1))
    assert sorted(o.size for o in orbits(p)) == sorted(o.size for o in orbits(a))
    for word in [(), (0,), (0, 0), (0, 0, 0)]:
        assert fixed_points(p, word) == fixed_points(a, word)


def test_product_orbit_sizes_are_isomorphism_invariant():
    # same abstract action, different labelling of the 3-cycle
    a1 = from_cycle_lengths((3,))
    a2 = FiniteGSet(3, ((2, 0, 1),))
    b = from_cycle_lengths((6, 2))
    sizes1 = sorted(o.size for o in orbits(product(a1, b)))
    sizes2 = sorted(o.size for o in orbits(product(a2, b)))
    assert sizes1 == sizes2


def test_product_generator_count_mismatch():
    with pytest.raises(ValueError):
        product(from_cycle_lengths((2,)), power_tuple_set(2, (1,)))


def test_orbits_examples():
    assert [o.size for o in orbits(trivial_set(3))] == [1, 1, 1]
    assert [o.size for o in orbits(from_cycle_lengths((4,)))] == [4]
    assert [o.size for o in orbits(from_cycle_lengths((2, 3)))] == [2, 3]


def test_orbits_reindex_to_valid_sets():
    a = power_tuple_set(4, (2, 1))
    total = 0
    for orb in orbits(a):
        total += orb.size
        assert len(orb.generators) == len(a.generators)
    assert total == a.size


def test_fixed_points_words():
    a = from_cycle_lengths((4,))
    assert fixed_points(a, ()) == 4
    assert fixed_points(a, (0,)) == 0
    assert fixed_points(a, (0, 0)) == 0
    assert fixed_points(a, (0, 0, 0, 0)) == 4
    with pytest.raises(ValueError):
        fixed_points(a, (1,))


def test_symmetric_power_sizes():
    for m in range(6):
        a = trivial_set(m)
        for k in range(5):
            expected = 1 if m == 0 and k == 0 else math.comb(m + k - 1, k)
            assert symmetric_power(a, k).size == expected


def test_symmetric_power_of_two_cycle():
    a = from_cycle_lengths((2,))
    sq = symmetric_power(a, 2)
    assert sq.size == 3
    assert sorted(o.size for o in orbits(sq)) == [1, 2]


def test_symmetric_power_degree_one_is_identity():
    a = from_cycle_lengths((3, 2, 1))
    s1 = symmetric_power(a, 1)
    assert s1.size == a.size
    assert sorted(o.size for o in orbits(s1)) == sorted(o.size for o in orbits(a))


def test_symmetric_power_size_guard():
    a = trivial_set(200)
    with pytest.raises(ValueError):
        symmetric_power(a, 4)


def test_power_tuple_set_cardinalities():
    assert power_tuple_set(4, (2,)).size == 6
    assert power_tuple_set(4, (2, 1)).size == 12
    for n in range(6):
        for w in range(n + 1):
            for comp in compositions(w):
                assert power_tuple_set(n, comp).size == multinomial(n, comp)


def test_power_tuple_set_whole_block_is_fixed():
    a = power_tuple_set(3, (3,))
    assert a.size == 1
    assert fixed_points(a, (0,)) == 1
    assert fixed_points(a, (1,)) == 1


def test_power_tuple_set_reordering_has_equal_marks():
    a = power_tuple_set(4, (2, 1))
    b = power_tuple_set(4, (1, 2))
    words = [()]
    for length in range(1, 4):
        new = []
        for w in words:
            if len(w) == length - 1:
                new.extend([w + (0,), w + (1,)])
        words.extend(new)
    for word in words:
        assert fixed_points(a, word) == fixed_points(b, word)


def test_power_tuple_set_size_guard():
    with pytest.raises(ValueError):
        power_tuple_set(13, (1,) * 13)


def test_burnside_orbit_count_for_cyclic_actions():
    # orbit count equals the average fixed-point count over the generated
    # cyclic group
    cases = [
        from_cycle_lengths((4,)),
        from_cycle_lengths((6, 4, 2)),
        symmetric_power(from_cycle_lengths((3, 2)), 2),
        with_single_generator(
            power_tuple_set(4, (2,)),
            tuple_set_permutation(power_tuple_set(4, (2,)), perm_of_cycle_type((4,))),
        ),
    ]
    for a in cases:
        order = 1
        perm = element_permutation(a, (0,))
        for length in cycle_type(perm):
            order = order * length // math.gcd(order, length)
        total = sum(fixed_points(a, (0,) * e) for e in range(1, order + 1))
        assert total % order == 0
        assert total // order == len(orbits(a))


def test_cyclic_decomposition_examples():
    assert cyclic_decomposition(from_cycle_lengths((4,))) == CyclicBurnside({4: 1})
    assert cyclic_decomposition(trivial_set(3)) == CyclicBurnside({1: 3})
    with pytest.raises(ValueError):
        cyclic_decomposition(power_tuple_set(3, (1,)))


def test_pair_subsets_of_four_under_four_cycle():
    # the six 2-subsets of a 4-point cycle split into a 4-orbit and a 2-orbit
    a = power_tuple_set(4, (2,))
    sigma = perm_of_cycle_type((4,))
    restricted = with_single_generator(a, tuple_set_permutation(a, sigma))
    assert cyclic_decomposition(restricted) == CyclicBurnside({4: 1, 2: 1})


def test_tuple_set_permutation_requires_labels():
    with pytest.raises(ValueError):
        tuple_set_permutation(from_cycle_lengths((3,)), (0, 1, 2))


def test_symmetric_group_generators_degenerate():
    assert symmetric_group_generators(0) == ((), ())
    assert symmetric_group_generators(1) == ((0,), (0,))
    t, c = symmetric_group_generators(4)
    assert t == (1, 0, 2, 3)
    assert c == (1, 2, 3, 0)
