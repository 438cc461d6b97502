"""Finite sets with explicit generator actions: the brute-force test oracle.

Products, orbit scans, fixed-point counts, symmetric powers, the sets of
disjoint-subset tuples acted on by the symmetric group, and the strata of
the recursion route's fibered pieces, found by walking the subsets of a
fiber (subset_walk_stratum_types), mixed cycle types included.  Everything
here is brute force on materialized elements, which is exactly the point:
the tests check the structural formulas of the torusclass package against
this engine, and no route of the package uses it.

Sets are immutable after construction and safe to share between threads.
Elements are the integers 0..size-1; an optional ``labels`` tuple gives
each element a printable identity (nested tuples of ints for the tuple
sets), and actions on labelled sets are required to be consistent with
the labels only by the functions that construct them.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cache
from itertools import combinations, combinations_with_replacement
from typing import Optional, Sequence

from torusclass.combinatorics import Partition
from torusclass.cyclic import CyclicBurnside
from torusclass.torus import AlgebraSpec

from .counting import Composition, multinomial

# Hard cap on materialized elements.  Anything larger is a sign the caller
# should be using the structural formulas instead of the oracle engine.
SIZE_LIMIT = 10**7


class FiniteGSet:
    """A finite set with an ordered tuple of generating permutations.

    ``generators[g][x]`` is the image of element x under generator g.  The
    group acting is whatever the generators generate; the tests use
    either a single generator (procyclic actions) or the standard
    two-generator presentation of a symmetric group.
    """

    __slots__ = ("size", "generators", "labels")

    def __init__(
        self,
        size: int,
        generators: Sequence[Sequence[int]],
        labels: Optional[Sequence] = None,
    ):
        if size < 0:
            raise ValueError("size must be nonnegative")
        if size > SIZE_LIMIT:
            raise ValueError(f"set of size {size} exceeds limit {SIZE_LIMIT}")
        gens = tuple(tuple(g) for g in generators)
        for g in gens:
            if len(g) != size or set(g) != set(range(size)):
                raise ValueError("generator is not a permutation of the set")
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "generators", gens)
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != size:
                raise ValueError("labels length must match size")
        object.__setattr__(self, "labels", labels)

    def __setattr__(self, name, value):
        raise AttributeError("FiniteGSet is immutable")

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return f"FiniteGSet(size={self.size}, generators={len(self.generators)})"


def trivial_set(m: int) -> FiniteGSet:
    """m points with a single identity generator."""
    return FiniteGSet(m, (tuple(range(m)),))


def from_cycle_lengths(lengths: Sequence[int]) -> FiniteGSet:
    """Single-generator set whose generator has the given cycle type.

    Cycles occupy consecutive index blocks in the order given.
    """
    if any(c < 1 for c in lengths):
        raise ValueError("cycle lengths must be positive")
    n = sum(lengths)
    perm = list(range(n))
    start = 0
    for c in lengths:
        for j in range(c):
            perm[start + j] = start + (j + 1) % c
        start += c
    return FiniteGSet(n, (tuple(perm),))


def perm_of_cycle_type(lam: Partition) -> tuple[int, ...]:
    """A concrete permutation of sum(lam) points with cycle type lam."""
    return from_cycle_lengths(lam).generators[0]


def cycle_type(perm: Sequence[int]) -> Partition:
    """Cycle type of a permutation given as an image tuple, sorted descending."""
    n = len(perm)
    seen = [False] * n
    lengths = []
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


@cache
def subset_walk_stratum_types(tau: Partition, i: int) -> Counter:
    """Component types of stratum i of the fibered piece over a point whose
    return map sigma has cycle type tau, by walking every i-subset of one
    fiber: each sigma-orbit of subsets, of length m, gives the type
    (m, cycle type of sigma^m on the complement).  Mixed types included."""
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


def recursion_stratum_base(spec: AlgebraSpec, alpha: Composition) -> CyclicBurnside:
    """Zero-dimensional class of the stratum base reached from the initial
    algebra by peeling vanishing sets of sizes alpha, in order, with the
    stratum types taken from the subset walk."""
    pieces: dict[tuple[int, Partition], int] = {(1, spec.parts): 1}
    r = spec.n
    for i in alpha:
        if not 1 <= i <= r:
            raise ValueError(f"stratum index {i} out of range 1..{r}")
        peeled: dict[tuple[int, Partition], int] = {}
        for (b, tau), c in pieces.items():
            for (m, rest), count in subset_walk_stratum_types(tau, i).items():
                key = (b * m, rest)
                peeled[key] = peeled.get(key, 0) + c * count
        pieces = peeled
        r -= i
    base: dict[int, int] = {}
    for (b, _), c in pieces.items():
        base[b] = base.get(b, 0) + c
    return CyclicBurnside(base)


def symmetric_group_generators(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The transposition (0 1) and the n-cycle (0 1 ... n-1).

    For n <= 1 both degenerate to the identity so that every symmetric
    group action in this engine has exactly two generators.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n < 2:
        ident = tuple(range(n))
        return ident, ident
    transposition = (1, 0) + tuple(range(2, n))
    cycle = tuple(range(1, n)) + (0,)
    return transposition, cycle


def product(a: FiniteGSet, b: FiniteGSet) -> FiniteGSet:
    """Cartesian product with the diagonal action, generator by generator."""
    if len(a.generators) != len(b.generators):
        raise ValueError("generator counts differ; cannot act diagonally")
    size = a.size * b.size
    if size > SIZE_LIMIT:
        raise ValueError(f"product of size {size} exceeds limit {SIZE_LIMIT}")
    gens = []
    for ga, gb in zip(a.generators, b.generators):
        gens.append(tuple(ga[i] * b.size + gb[j] for i in range(a.size) for j in range(b.size)))
    labels = None
    if a.labels is not None and b.labels is not None:
        labels = tuple((a.labels[i], b.labels[j]) for i in range(a.size) for j in range(b.size))
    return FiniteGSet(size, gens, labels)


class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            # keep the smaller index as the representative
            if rx < ry:
                self.parent[ry] = rx
            else:
                self.parent[rx] = ry


def orbits(a: FiniteGSet) -> list[FiniteGSet]:
    """Orbit decomposition under the full generated group.

    Returned in ascending order of each orbit's least element, each orbit
    reindexed by its own element order with induced generators and labels.
    """
    uf = _UnionFind(a.size)
    for g in a.generators:
        for x in range(a.size):
            uf.union(x, g[x])
    members: dict[int, list[int]] = {}
    for x in range(a.size):
        members.setdefault(uf.find(x), []).append(x)
    out = []
    for root in sorted(members):
        elems = members[root]
        index = {x: i for i, x in enumerate(elems)}
        gens = [tuple(index[g[x]] for x in elems) for g in a.generators]
        labels = None if a.labels is None else tuple(a.labels[x] for x in elems)
        out.append(FiniteGSet(len(elems), gens, labels))
    return out


def fixed_points(a: FiniteGSet, word: Sequence[int]) -> int:
    """Number of elements fixed by the group element spelled by the word.

    The word is a sequence of generator indices, applied left to right;
    the empty word is the identity.
    """
    for g in word:
        if not 0 <= g < len(a.generators):
            raise ValueError(f"generator index {g} out of range")
    count = 0
    for x in range(a.size):
        y = x
        for g in word:
            y = a.generators[g][y]
        if y == x:
            count += 1
    return count


def element_permutation(a: FiniteGSet, word: Sequence[int]) -> tuple[int, ...]:
    """Image tuple of the group element spelled by the word."""
    perm = list(range(a.size))
    for g in word:
        gen = a.generators[g]
        perm = [gen[x] for x in perm]
    return tuple(perm)


def symmetric_power(a: FiniteGSet, k: int) -> FiniteGSet:
    """k-multisets of elements with the induced action.

    Elements are weakly increasing k-tuples of indices of ``a``, in
    lexicographic order; the size is C(size + k - 1, k).
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    # comb(m + k - 1, k) counts k-multisets; the m = k = 0 corner (one empty
    # multiset) falls outside comb's domain
    size = 1 if a.size == 0 and k == 0 else math.comb(a.size + k - 1, k)
    if size > SIZE_LIMIT:
        raise ValueError(f"symmetric power of size {size} exceeds limit {SIZE_LIMIT}")
    elems = list(combinations_with_replacement(range(a.size), k))
    index = {e: i for i, e in enumerate(elems)}
    gens = []
    for g in a.generators:
        gens.append(tuple(index[tuple(sorted(g[x] for x in e))] for e in elems))
    base_labels = a.labels if a.labels is not None else tuple(range(a.size))
    labels = tuple(tuple(base_labels[x] for x in e) for e in elems)
    return FiniteGSet(size, gens, labels)


def power_tuple_set(n: int, alpha: Composition) -> FiniteGSet:
    """Tuples of pairwise-disjoint subsets of {0..n-1} with sizes alpha,
    acted on by the symmetric group through its two standard generators.

    Labels are tuples of blocks, each block a sorted tuple of points; the
    element order is lexicographic in this encoding.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    size = multinomial(n, alpha)
    if size > SIZE_LIMIT:
        raise ValueError(f"tuple set of size {size} exceeds limit {SIZE_LIMIT}")
    elems: list[tuple[tuple[int, ...], ...]] = []

    def extend(prefix: tuple, remaining: tuple[int, ...], free: tuple[int, ...]):
        if not remaining:
            elems.append(prefix)
            return
        for block in combinations(free, remaining[0]):
            rest = tuple(x for x in free if x not in block)
            extend(prefix + (block,), remaining[1:], rest)

    extend((), tuple(alpha), tuple(range(n)))
    index = {e: i for i, e in enumerate(elems)}
    gens = []
    for g in symmetric_group_generators(n):
        gens.append(
            tuple(
                index[tuple(tuple(sorted(g[x] for x in block)) for block in e)]
                for e in elems
            )
        )
    return FiniteGSet(size, gens, tuple(elems))


def tuple_set_permutation(a: FiniteGSet, sigma: Sequence[int]) -> tuple[int, ...]:
    """Permutation induced on a labelled tuple set by a point permutation.

    ``a`` must carry block-tuple labels as produced by power_tuple_set.
    """
    if a.labels is None:
        raise ValueError("tuple set carries no labels")
    index = {e: i for i, e in enumerate(a.labels)}
    return tuple(
        index[tuple(tuple(sorted(sigma[x] for x in block)) for block in e)]
        for e in a.labels
    )


def with_single_generator(a: FiniteGSet, perm: Sequence[int]) -> FiniteGSet:
    """The same underlying set restricted to one explicit permutation."""
    return FiniteGSet(a.size, (tuple(perm),), a.labels)


def cyclic_decomposition(a: FiniteGSet):
    """Orbit-size census of a single-generator set as a Burnside element.

    Returns sum(a_k [k]) where a_k is the number of orbits of size k.
    """
    if len(a.generators) != 1:
        raise ValueError("cyclic decomposition needs exactly one generator")
    counts: dict[int, int] = {}
    for orb in orbits(a):
        counts[orb.size] = counts.get(orb.size, 0) + 1
    return CyclicBurnside(counts)
