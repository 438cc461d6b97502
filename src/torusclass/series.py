"""Integer counting series and the symmetric-to-alternating power conversion.

The conversion from symmetric-power to alternating-power coefficient
sequences lives here because it is pure series algebra: the two
generating series are mutually inverse up to the sign flip t -> -t, which
collapses to the recursion

    sum_{i=0..k} (-1)^i lam[i] * sig[k-i] == 0    for every k >= 1.

It works over any commutative ring, since it needs only +, - and *; the
callers apply it to integer mark sequences.
"""

from __future__ import annotations

from typing import Mapping, Sequence


def invariant_multiset_counts(cycles: Mapping[int, int], truncation: int) -> list[int]:
    """Number of k-multisets invariant under a permutation, for
    k = 0..truncation, where ``cycles`` maps each cycle length to its
    signed multiplicity.

    An invariant multiset has constant multiplicity along each cycle, so
    the counting series is the product of (1 - x^c)^(-m) over cycle
    lengths c of multiplicity m.  A negative m contributes the polynomial
    (1 - x^c)^|m|, which is the symmetric-power series of a virtual set:
    no series division is needed.
    """
    counts = [1] + [0] * truncation
    for length, mult in cycles.items():
        # coefficients of (1 - y)^(-mult) in y = x^length: the rising
        # factorial mult (mult + 1) ... (mult + i - 1) over i!
        factor = [1]
        for i in range(1, truncation // length + 1):
            factor.append(factor[-1] * (mult + i - 1) // i)
        for k in range(truncation, 0, -1):
            counts[k] += sum(
                factor[i] * counts[k - i * length] for i in range(1, k // length + 1)
            )
    return counts


def lambda_from_sigma(sigmas: Sequence) -> list:
    """Alternating-power coefficients from symmetric-power coefficients.

    ``sigmas[0]`` must be the ring's one.  Solves the defining recursion
    for lam[k]:  lam[k] = (-1)^(k+1) sum_{i=0..k-1} (-1)^i lam[i] sig[k-i].
    """
    sigmas = list(sigmas)
    if not sigmas:
        raise ValueError("need at least the constant symmetric power")
    lams = [sigmas[0]]
    for k in range(1, len(sigmas)):
        acc = lams[0] * sigmas[k]
        for i in range(1, k):
            if i % 2:
                acc = acc - lams[i] * sigmas[k - i]
            else:
                acc = acc + lams[i] * sigmas[k - i]
        lams.append(acc if k % 2 else -acc)
    return lams
