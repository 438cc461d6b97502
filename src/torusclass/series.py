"""Invariant multiset counts of a virtual permutation set.

The symmetric-power series sigma_t turns sums into products, so
sigma_t(-x) = sigma_t(x)^(-1), and with lambda defined by
lambda_{-t}(x) sigma_t(x) = 1 this reads

    (-1)^i lambda^i(x) == sigma^i(-x).

Alternating powers therefore need no conversion from symmetric powers:
at each mark they are, up to sign, the invariant multiset counts of the
opposite virtual set, which is what this module counts.
"""

from __future__ import annotations

from typing import Mapping


def invariant_multiset_counts(cycles: Mapping[int, int], truncation: int) -> list[int]:
    """Number of k-multisets invariant under a permutation, for
    k = 0..truncation, where ``cycles`` maps each cycle length to its
    signed multiplicity.

    An invariant multiset has constant multiplicity along each cycle, so
    the counting series is the product of (1 - x^c)^(-m) over cycle
    lengths c of multiplicity m.  It is applied one factor at a time: a
    real cycle divides by (1 - x^c), an ascending prefix-sum pass, and a
    virtual cycle (m < 0) multiplies by (1 - x^c), a descending
    difference pass.  Each pass costs O(truncation), and no series
    division is needed.
    """
    counts = [1] + [0] * truncation
    for length, mult in cycles.items():
        if mult > 0:
            for _ in range(mult):
                for k in range(length, truncation + 1):
                    counts[k] += counts[k - length]
        else:
            for _ in range(-mult):
                for k in range(truncation, length - 1, -1):
                    counts[k] -= counts[k - length]
    return counts
