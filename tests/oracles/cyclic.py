"""Procyclic Burnside maps that no route uses, kept to check the ring with:
the single-column and keyed mark inversions, induction, and the sigma and
lambda series by counting passes, the independent check of the lambda and
norm-one routes' closed rows."""

from __future__ import annotations

from typing import Mapping, Sequence

from torusclass.combinatorics import _check_int, divisors, invariant_multiset_counts
from torusclass.cyclic import CyclicBurnside


def from_mark_list(divs: list[int], values: Sequence[int]) -> CyclicBurnside:
    """The element with mark values[j] at divs[j]: the mark kernel on one column."""
    return CyclicBurnside._from_mark_rows(divs, [[v] for v in values])[0]


def from_marks(fix: Mapping[int, int]) -> CyclicBurnside:
    """The element with marks {d: mark(d)} at exactly the divisors of the
    largest key; a missing or extra key is rejected."""
    if not fix:
        raise ValueError("mark vector is empty")
    order = max(fix)
    divs = divisors(order)
    if set(fix) != set(divs):
        raise ValueError(f"marks must be keyed by the divisors of {order}, not {sorted(fix)}")
    return from_mark_list(divs, [fix[d] for d in divs])


def induce(x: CyclicBurnside, d: int) -> CyclicBurnside:
    """Additive induction along the index-d subgroup: [k] -> [d k]."""
    _check_int("d", d, 1)
    return CyclicBurnside({d * k: c for k, c in x.coeffs.items()})


def sigma_series(x: CyclicBurnside, truncation: int) -> list[CyclicBurnside]:
    """Symmetric powers sigma^0..sigma^truncation of x, from their marks.
    At each divisor d of the lcm of the orbit sizes, the d-th power of the
    generator acts with the cycles of x.base_change(d), so the marks of
    every sigma^j there are its invariant multiset counts: one counting
    pass per divisor gives one row of marks, truncated, and one call of the
    mark kernel pulls all the rows back."""
    _check_int("truncation", truncation, 0)
    divs = divisors(*x.coeffs)
    rows = [invariant_multiset_counts(x.base_change(d).coeffs, truncation) for d in divs]
    return CyclicBurnside._from_mark_rows(divs, rows)


def lambda_series(x: CyclicBurnside, truncation: int) -> list[CyclicBurnside]:
    """Alternating powers lambda^0..lambda^truncation: sigma_t(-x) is the
    inverse of sigma_t(x), so lambda^j(x) = (-1)^j sigma^j(-x)."""
    return [s if j % 2 == 0 else -s for j, s in enumerate(sigma_series(-x, truncation))]
