"""Correctness gate for one partition's results, run outside the timed region.

A class is read from the JSON the CLI prints (``{"n", "coeffs": [{"power",
"artin": {orbit size: coefficient}}]}``) or from any object with a
``to_json`` method returning that form, such as a ``TorusClass``.  Point
counts and the characteristic polynomial are evaluated here from that raw
form, so a defect in the class's own evaluation methods cannot hide a wrong
class.  A call fails if it raised, disagrees with the majority of the three
routes, or misses an oracle; the norm-one class fails if ``(L - 1)`` times
it is not the class of the unit torus.
"""

from __future__ import annotations

from collections import Counter

ROUTES = ("lambda", "rho", "recursion")
NORM_ONE = "norm_one"
Q_RANGE = range(2, 6)
E_RANGE = range(1, 4)

Poly = tuple  # coefficient of L^p at index p, each a sorted ((k, c), ...) tuple


def canonical(value) -> Poly:
    """The class as a tuple indexed by Lefschetz power."""
    if hasattr(value, "to_json"):
        value = value.to_json()
    n = value["n"]
    coeffs: list[dict[int, int]] = [{} for _ in range(n + 1)]
    for entry in value["coeffs"]:
        if not 0 <= entry["power"] <= n:
            raise ValueError(f"power {entry['power']} outside 0..{n}")
        coeffs[entry["power"]] = {int(k): c for k, c in entry["artin"].items() if c != 0}
    return tuple(tuple(sorted(c.items())) for c in coeffs)


def _mark(coeff, e: int) -> int:
    return sum(k * c for k, c in coeff if e % k == 0)


def times_l_minus_one(poly: Poly) -> Poly:
    """(L - 1) * poly: the coefficient of L^p is a_(p-1) - a_p."""
    out = []
    for p in range(len(poly) + 1):
        acc: dict[int, int] = {}
        for k, c in poly[p - 1] if p >= 1 else ():
            acc[k] = acc.get(k, 0) + c
        for k, c in poly[p] if p < len(poly) else ():
            acc[k] = acc.get(k, 0) - c
        out.append(tuple(sorted((k, c) for k, c in acc.items() if c != 0)))
    return tuple(out)


def oracle_failures(parts: tuple[int, ...], poly: Poly, oracles) -> list[str]:
    """Reasons ``poly`` is not the unit-torus class of ``parts``."""
    spec = oracles.AlgebraSpec(parts)
    n = sum(parts)
    if len(poly) != n + 1:
        return [f"degree {len(poly) - 1}, expected {n}"]
    reasons = []
    if poly[n] != ((1, 1),):
        reasons.append("not monic")
    for q in Q_RANGE:
        for e in E_RANGE:
            got = sum(_mark(a, e) * q ** (e * p) for p, a in enumerate(poly))
            expected = oracles.point_count_oracle(spec, q, e)
            if got != expected:
                reasons.append(f"q={q} e={e}: {got} points, oracle {expected}")
    char_poly = tuple(_mark(a, 1) for a in poly)
    expected_char = tuple(oracles.char_poly_oracle(spec))
    if char_poly != expected_char:
        reasons.append(f"char poly {char_poly}, oracle {expected_char}")
    return reasons


def check_partition(parts, results: dict, oracles) -> dict[str, list[str]]:
    """Failure reasons per route and for the norm-one class.

    ``results`` maps each of ROUTES and NORM_ONE to a class (JSON or an
    object with ``to_json``), or to None when the call raised or exited
    non-zero.  ``oracles`` is the ``torusclass`` package, which provides
    ``AlgebraSpec``, ``point_count_oracle`` and ``char_poly_oracle``.
    """
    parts = tuple(parts)
    failures: dict[str, list[str]] = {name: [] for name in ROUTES + (NORM_ONE,)}
    polys = {}
    for name in ROUTES + (NORM_ONE,):
        value = results.get(name)
        if value is None:
            failures[name].append("no result")
            continue
        try:
            polys[name] = canonical(value)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            failures[name].append(f"unreadable result: {exc!r}")
    routes = {name: polys[name] for name in ROUTES if name in polys}
    for name, poly in routes.items():
        failures[name].extend(oracle_failures(parts, poly, oracles))
    tally = Counter(routes.values()).most_common()
    reference = None
    if tally and tally[0][1] >= 2 and (len(tally) == 1 or tally[1][1] < tally[0][1]):
        reference = tally[0][0]
    for name, poly in routes.items():
        if reference is None:
            failures[name].append("no two routes agree")
        elif poly != reference:
            failures[name].append("disagrees with the other routes")
    if NORM_ONE in polys:
        product = times_l_minus_one(polys[NORM_ONE])
        failures[NORM_ONE].extend(oracle_failures(parts, product, oracles))
        if reference is not None and product != reference:
            failures[NORM_ONE].append("(L - 1) * norm_one differs from the class")
    return failures
