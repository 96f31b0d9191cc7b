"""Hardness transformation: equal-sum subsets to discrepancy-one skip sets.

ESS asks for disjoint subsets X, Y of a set A with |X| = |Y| + 1 and
equal sums.  An instance transforms into a skip set {s_1..s_n, M, t}
whose graph holds an odd cycle exactly when the ESS answer is yes:

    M   = n * prod_{i<j} (a_j - a_i) * prod_i (n*a_i + 1)
    r   = least multiple of n strictly greater than (n/2)(n(a_n - a_1) + 1) + 1
    s_i = n*M*a_i + r*M + 1
    t   = (r - 1)*M + 1

A witness (X, Y) yields the alternating cycle
[+s_{x1} -s_{y1} ... +s_{x(k+1)} -t -M]: its signed sum telescopes to
zero, and because the constructed skips are pairwise coprime the cycle is
weakly realizable, which already rules out any discrepancy-1 coloring.
The constructed values grow multiplicatively, so everything here runs on
arbitrary-precision integers; the graphs themselves are far too large to
build, and verification goes through the arithmetic engine instead.

``ess_solve`` finds the first witness by |Y| ascending, then X, then Y
(as index tuples).  Each level |Y| = k builds one sum index, from each
k-subset's sum to the first k-subset with that sum in lexicographic
order, and walks the (k+1)-subsets in lexicographic order against it, so
a level costs C(n, k) + C(n, k+1) subsets.  One subset per sum is enough
because every Y with X's sum is disjoint from X once lower levels have
found nothing (see ``ess_solve``).  Two limits raise BudgetExceeded: more
than BRUTE_FORCE_LIMIT elements, which also bounds the transformed skips,
and a level of more than LEVEL_LIMIT subsets.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Iterable, NamedTuple

from .pattern import SignedPattern

BRUTE_FORCE_LIMIT = 24
# subsets one level of ess_solve may index and walk, C(n, k) + C(n, k+1):
# 20 elements still answer (their largest level is 352 716), where 24
# would index up to C(24, 11) = 2 496 144 subsets, roughly 600 MB at the
# 250 B per indexed subset that tracemalloc measures at C(22, 11)
LEVEL_LIMIT = 400_000


class BudgetExceeded(ValueError):
    pass


class ESSInstance(NamedTuple):
    """A set of distinct positive integers, sorted ascending."""

    elements: tuple[int, ...]

    @classmethod
    def of(cls, values: Iterable[int]) -> "ESSInstance":
        elems = tuple(sorted(values))
        if not elems:
            raise ValueError("instance must be nonempty")
        if any(v < 1 for v in elems):
            raise ValueError(f"elements must be positive, got {elems}")
        if len(set(elems)) != len(elems):
            raise ValueError(f"elements must be distinct, got {elems}")
        return cls(elems)

    @property
    def n(self) -> int:
        return len(self.elements)


class ESSWitness(NamedTuple):
    """Disjoint index sets with |X| = |Y| + 1 and equal element sums."""

    x_indices: tuple[int, ...]
    y_indices: tuple[int, ...]

    def values(self, inst: ESSInstance) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return (
            tuple(inst.elements[i] for i in self.x_indices),
            tuple(inst.elements[i] for i in self.y_indices),
        )


class ReductionInstance(NamedTuple):
    source: ESSInstance
    M: int
    r: int
    s: tuple[int, ...]
    t: int

    @property
    def skip_set(self) -> tuple[int, ...]:
        return self.s + (self.M, self.t)


def ess_solve(inst: ESSInstance) -> ESSWitness | None:
    """The first witness in a fixed canonical order, or None.

    Pairs are tried by |Y| ascending, then X ascending, then Y ascending
    (as index tuples), so the first match is deterministic: the first X
    whose sum is in its level's sum index, with the first Y of that sum.
    Raises BudgetExceeded at either limit of the module docstring.

    That Y is disjoint from X.  Suppose X (k+1 elements) and Y (k
    elements) have equal sums and share j >= 1 indices.  If j < k,
    dropping the shared indices leaves an equal-sum pair at level k - j,
    which an earlier level would already have returned; if j = k, it
    leaves one positive element whose sum would be 0.  So every Y with
    X's sum is disjoint from X, and the index keeps only the first.
    """
    n = inst.n
    if n > BRUTE_FORCE_LIMIT:
        raise BudgetExceeded(
            f"brute-force scan supports up to {BRUTE_FORCE_LIMIT} elements, got {n}"
        )
    elems = inst.elements
    indices = range(n)
    for k in range(1, (n - 1) // 2 + 1):
        work = math.comb(n, k) + math.comb(n, k + 1)
        if work > LEVEL_LIMIT:
            raise BudgetExceeded(
                f"equal-sum scan at |Y| = {k} indexes and walks {work} subsets, "
                f"past the limit of {LEVEL_LIMIT}"
            )
        index: dict[int, tuple[int, ...]] = {}
        for y in combinations(indices, k):
            index.setdefault(sum(elems[i] for i in y), y)
        for x in combinations(indices, k + 1):
            y = index.get(sum(elems[i] for i in x))
            if y is not None:
                return ESSWitness(x, y)
    return None


def validate_witness(inst: ESSInstance, w: ESSWitness) -> None:
    xs, ys = set(w.x_indices), set(w.y_indices)
    if not (
        xs.isdisjoint(ys)
        and len(xs) == len(w.x_indices) == len(ys) + 1 == len(w.y_indices) + 1
    ):
        raise ValueError(f"malformed witness: X={w.x_indices}, Y={w.y_indices}")
    if not all(0 <= i < inst.n for i in xs | ys):
        raise ValueError(f"witness indices out of range for n={inst.n}")
    xv, yv = w.values(inst)
    if sum(xv) != sum(yv):
        raise ValueError(f"witness sums differ: {xv} vs {yv}")


def build_d1_instance(inst: ESSInstance) -> ReductionInstance:
    """Construct {s_1..s_n, M, t} and verify its pairwise coprimality."""
    a = inst.elements
    n = inst.n
    diff_product = math.prod(a[j] - a[i] for i in range(n) for j in range(i + 1, n))
    big_m = n * diff_product * math.prod(n * ai + 1 for ai in a)
    # least multiple of n strictly greater than (n/2)(n(a_n - a_1) + 1) + 1,
    # computed exactly: the threshold is numerator/2 with numerator below
    numerator = n * (n * (a[-1] - a[0]) + 1) + 2
    r = n * (numerator // (2 * n) + 1)
    s = tuple(n * big_m * ai + r * big_m + 1 for ai in a)
    t = (r - 1) * big_m + 1
    ri = ReductionInstance(inst, big_m, r, s, t)
    skips = ri.skip_set
    for u, v in combinations(skips, 2):
        if math.gcd(u, v) != 1:
            raise RuntimeError(
                f"constructed skips are not coprime: gcd({u}, {v}) > 1"
            )
    return ri


def witness_cycle(ri: ReductionInstance, w: ESSWitness) -> SignedPattern:
    """The odd cycle certified by an ESS witness.

    Alternates +s over X with -s over Y, then closes with -t -M; the
    signed sum telescopes to zero because the X and Y sums agree.
    """
    validate_witness(ri.source, w)
    steps: list[tuple[int, int]] = []
    k = len(w.y_indices)
    for pos in range(k):
        steps.append((1, ri.s[w.x_indices[pos]]))
        steps.append((-1, ri.s[w.y_indices[pos]]))
    steps.append((1, ri.s[w.x_indices[k]]))
    steps.append((-1, ri.t))
    steps.append((-1, ri.M))
    sp = SignedPattern(tuple(steps))
    if sp.signed_sum != 0:
        raise RuntimeError(f"witness cycle does not close: sum {sp.signed_sum}")
    return sp
