"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line, so running

    pytest tests/test_acceptance.py -v -s

doubles as the acceptance report.  All comparisons are exact; the two
timed criteria also assert their wall-clock budgets.
"""

import random
import time

from oracles.counting import sigma_from_lambda
from oracles.cyclic import induce, lambda_series, sigma_series
from oracles.gsets import (
    cyclic_decomposition,
    from_cycle_lengths,
    perm_of_cycle_type,
    power_tuple_set,
    product,
    tuple_set_permutation,
)
from oracles.schur import Ring, entry
from torusclass.combinatorics import partitions
from torusclass.cyclic import CyclicBurnside
from torusclass.schur import lambda_standard, torus_coefficient
from torusclass.torus import (
    AlgebraSpec,
    TorusClass,
    char_poly_oracle,
    class_via_lambda,
    class_via_recursion,
    class_via_universal,
    norm_one_class,
    point_count_oracle,
)


def _report(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


def _tc(n, *coeff_maps):
    return TorusClass(n, tuple(CyclicBurnside(m) for m in coeff_maps))


def test_acceptance_1_benchmark_classes():
    expected = {
        (2,): _tc(2, {1: 1}, {2: -1}, {2: 1, 1: -1}),
        (3,): _tc(3, {1: 1}, {3: -1}, {3: 1}, {1: -1}),
        (4,): _tc(4, {1: 1}, {4: -1}, {4: 2, 2: -1}, {4: -1}, {2: 1, 1: -1}),
        (2, 2): _tc(4, {1: 1}, {2: -2}, {2: 4, 1: -2}, {2: -2}, {1: 1}),
    }
    ok = True
    for parts, want in expected.items():
        spec = AlgebraSpec(parts)
        for route in (class_via_lambda, class_via_universal, class_via_recursion):
            start = time.time()
            got = route(spec)
            elapsed = time.time() - start
            ok = ok and got == want and elapsed < 1.0
    _report("benchmark unit-torus classes, all routes, exact, <1s each", ok)


def test_acceptance_2_three_routes_agree():
    start = time.time()
    ok = True
    checked = 0
    for n in range(1, 8):
        for parts in partitions(n):
            spec = AlgebraSpec(parts)
            a = class_via_lambda(spec)
            b = class_via_universal(spec)
            c = class_via_recursion(spec)
            checked += 1
            ok = ok and a == b == c
    elapsed = time.time() - start
    ok = ok and checked == 44 and elapsed < 120.0
    _report(f"three routes agree on all {checked} partitions of n <= 7 in {elapsed:.1f}s", ok)


def test_acceptance_3_universal_coefficients_are_signed_alternating_powers():
    ok = True
    for n in range(1, 8):
        for i in range(1, n + 1):
            sign = -1 if i % 2 else 1
            signed = sign * Ring(n, lambda_standard(n, i).basis)
            ok = ok and torus_coefficient(n, i) == signed
    _report("universal coefficients equal signed alternating powers, n <= 7", ok)


def test_acceptance_4_point_counts_match_oracle():
    start = time.time()
    ok = True
    for n in range(1, 7):
        for parts in partitions(n):
            spec = AlgebraSpec(parts)
            tc = class_via_lambda(spec)
            for q in (2, 3, 4, 5, 7, 9):
                for e in (1, 2, 3, 4):
                    ok = ok and tc.count_points(q, e) == point_count_oracle(spec, q, e)
    elapsed = time.time() - start
    ok = ok and elapsed < 30.0
    _report(f"point counts match the closed-form oracle, n <= 6, in {elapsed:.1f}s", ok)


def test_acceptance_5_characteristic_polynomials_factor():
    ok = True
    for n in range(1, 9):
        for parts in partitions(n):
            spec = AlgebraSpec(parts)
            ok = ok and class_via_lambda(spec).char_poly() == char_poly_oracle(spec)
    _report("characteristic polynomials equal the product of X^n_j - 1, n <= 8", ok)


def test_acceptance_6_ring_oracles():
    ok = True
    # multiplication law against concrete orbit decompositions
    for a in range(1, 13):
        for b in range(1, 13):
            concrete = cyclic_decomposition(
                product(from_cycle_lengths((a,)), from_cycle_lengths((b,)))
            )
            ok = ok and concrete == CyclicBurnside.orbit(a) * CyclicBurnside.orbit(b)
    # transitive classes square to n times themselves
    for n in range(1, 13):
        orb = CyclicBurnside.orbit(n)
        ok = ok and orb * orb == n * orb
    # mark matrix against brute-force fixed points
    for n in range(1, 6):
        for mu in partitions(n):
            aset = power_tuple_set(n, mu)
            for lam in partitions(n):
                induced = tuple_set_permutation(aset, perm_of_cycle_type(lam))
                fixed = sum(1 for i, j in enumerate(induced) if i == j)
                ok = ok and entry(n, mu, lam) == fixed
    # projection formula
    rng = random.Random(97)
    for _ in range(20):
        x = CyclicBurnside({k: rng.randint(-3, 3) for k in range(1, 7)})
        z = CyclicBurnside({k: rng.randint(-3, 3) for k in range(1, 7)})
        for d in range(1, 5):
            ok = ok and induce(x.base_change(d) * z, d) == x * induce(z, d)
    # symmetric/alternating series round trip on virtual elements
    cases = [CyclicBurnside({6: 1, 4: -1, 3: 1, 1: -1})]
    cases += [
        CyclicBurnside({k: rng.randint(-1, 1) for k in range(1, 5)})
        for _ in range(10)
    ]
    for x in cases:
        ok = ok and sigma_from_lambda(lambda_series(x, 8)) == sigma_series(x, 8)
    _report("ring-level oracles: products, squares, marks, projection, series", ok)


def test_acceptance_7_norm_one_subtorus():
    ok = True
    l_minus_1 = _tc(1, {1: 1}, {1: -1})
    for n in range(1, 7):
        for parts in partitions(n):
            spec = AlgebraSpec(parts)
            nro = norm_one_class(spec)
            ok = ok and l_minus_1 * nro == class_via_lambda(spec)
            for q in (2, 3, 4, 5, 7, 9):
                for e in (1, 2, 3, 4):
                    units = point_count_oracle(spec, q, e)
                    ok = ok and units % (q**e - 1) == 0
                    ok = ok and nro.count_points(q, e) == units // (q**e - 1)
    _report("norm-one classes: factorization and quotient point counts, n <= 6", ok)


def test_acceptance_8_three_routes_agree_to_n_12():
    start = time.time()
    ok = True
    checked = 0
    for n in range(1, 13):
        for parts in partitions(n):
            spec = AlgebraSpec(parts)
            tc = class_via_recursion(spec)
            checked += 1
            ok = ok and tc == class_via_lambda(spec) == class_via_universal(spec)
            for q in (2, 3):
                for e in (1, 2):
                    ok = ok and tc.count_points(q, e) == point_count_oracle(spec, q, e)
    elapsed = time.time() - start
    ok = ok and checked == 271 and elapsed < 60.0
    _report(
        f"three routes agree on all {checked} partitions of n <= 12, "
        f"point counts q 2..3 e 1..2, in {elapsed:.1f}s",
        ok,
    )
