"""The skip graph on one period block: coloring and odd-cycle extraction.

For each skip s the graph joins every even multiple of s to the next odd
multiple, so the progression s, 2s, 3s, ... is paired off as (s, 2s),
(3s, 4s), ...  mirrored to start at 0.  The structure repeats with period
2*lcm(S) and every edge stays inside one block, so a single block decides
everything: either it 2-colors (discrepancy 1 is achievable) or it holds
an odd cycle (the skip set forces discrepancy two).  One BFS over the
block, ``solve_block``, returns whichever of the two certificates exists.

Adjacency is computed on demand from divisibility, never materialized;
a vertex that is a multiple of s has exactly one s-neighbour, so degrees
are at most |S|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .pattern import SignedPattern, realize, sorted_skips
from .realizability import valid_odd_cycle

DEFAULT_PERIOD_CAP = 1 << 24


class PeriodCapExceeded(ValueError):
    def __init__(self, period: int, cap: int):
        super().__init__(
            f"period 2*lcm(S) = {period} exceeds the cap {cap}; "
            "raise the cap or analyze the pattern arithmetically"
        )
        self.period = period
        self.cap = cap


@dataclass(frozen=True)
class SkipGraph:
    """One period block of the graph induced by a skip set."""

    skips: tuple[int, ...]
    period: int

    def neighbors(self, v: int) -> list[int]:
        out = []
        for s in self.skips:
            q, r = divmod(v, s)
            if r == 0:
                out.append(v + s if q % 2 == 0 else v - s)
        return out


def build_graph(skips: Iterable[int], cap: int = DEFAULT_PERIOD_CAP) -> SkipGraph:
    ss = sorted_skips(skips)
    period = 2 * math.lcm(*ss)
    if period > cap:
        raise PeriodCapExceeded(period, cap)
    return SkipGraph(ss, period)


@dataclass
class Coloring:
    """A +1/-1 assignment on one period block, extended periodically."""

    period: int
    values: np.ndarray  # int8, entries +1 or -1

    def __getitem__(self, v: int) -> int:
        return int(self.values[v % self.period])

    def line(self) -> str:
        return " ".join("+1" if v > 0 else "-1" for v in self.values)

    @classmethod
    def from_values(cls, values: Sequence[int]) -> "Coloring":
        arr = np.asarray(values, dtype=np.int8)
        if arr.ndim != 1 or arr.size == 0 or not np.all(np.abs(arr) == 1):
            raise ValueError("coloring must be a nonempty sequence of +1/-1")
        return cls(int(arr.size), arr)


@dataclass(frozen=True)
class OddCycleCertificate:
    """A concrete odd cycle: proof that the skip set forces discrepancy two."""

    signed_pattern: SignedPattern
    start: int

    def to_json_dict(self) -> dict:
        return realize(self.signed_pattern, self.start).to_json_dict()


def solve_block(g: SkipGraph) -> Coloring | OddCycleCertificate:
    """Decide one block with a single BFS: a 2-coloring, or an odd cycle
    built from the first edge that joins two vertices of one color."""
    period = g.period
    skips = g.skips
    color = bytearray(period)  # 1/2 for the two classes, 0 means unvisited
    for root in range(period):
        if color[root]:
            continue
        color[root] = 1  # isolated vertices stay +1 by convention
        if not any(root % s == 0 for s in skips):
            continue
        order = [root]  # the BFS queue, kept whole: it stands in for parents
        for v in order:
            cv = color[v]
            for s in skips:
                q, r = divmod(v, s)
                if r:
                    continue
                u = v + s if q % 2 == 0 else v - s
                if color[u] == 0:
                    color[u] = 3 - cv
                    order.append(u)
                elif color[u] == cv:
                    return _odd_cycle(g, order, v, u)
    values = np.frombuffer(color, dtype=np.int8).copy()
    values[values == 2] = -1
    return Coloring(period, values)


def two_color(g: SkipGraph) -> Coloring | None:
    """Bipartition of one block, or None when an odd cycle exists."""
    found = solve_block(g)
    return found if isinstance(found, Coloring) else None


def _canonical_cycle(vertices: list[int]) -> tuple[SignedPattern, int]:
    """Rotate to the least vertex and orient by sign order (+ before -)."""
    i0 = vertices.index(min(vertices))
    rot = vertices[i0:] + vertices[:i0]
    candidates = []
    for vs in (rot, [rot[0]] + rot[1:][::-1]):
        steps = []
        for a, b in zip(vs, vs[1:] + vs[:1]):
            d = b - a
            steps.append((1 if d > 0 else -1, abs(d)))
        sp = SignedPattern(tuple(steps))
        candidates.append((tuple((1 - s) // 2 for s in sp.signs), sp.skips, sp))
    candidates.sort(key=lambda c: (c[0], c[1]))
    return candidates[0][2], rot[0]


def _odd_cycle(g: SkipGraph, order: list[int], v: int, u: int) -> OddCycleCertificate:
    """The odd cycle closed by the conflict edge (v, u) through the BFS tree.

    The tree parent of a non-root x is its neighbour earliest in ``order``:
    that neighbour was dequeued first, and x was still uncolored then.
    """
    pos = {x: k for k, x in enumerate(order)}

    def parent(x: int) -> int:
        return order[min(pos[w] for w in g.neighbors(x) if w in pos)]

    # Climb from the later of the two ends until both paths meet.
    path_v, path_u = [v], [u]
    while path_v[-1] != path_u[-1]:
        if pos[path_v[-1]] > pos[path_u[-1]]:
            path_v.append(parent(path_v[-1]))
        else:
            path_u.append(parent(path_u[-1]))
    vertices = path_v + path_u[:-1][::-1]
    assert len(vertices) % 2 == 1 and len(set(vertices)) == len(vertices)
    sp, start = _canonical_cycle(vertices)
    assert all(skip in g.skips for skip in sp.skips)
    verdict = valid_odd_cycle(sp)
    if not verdict.valid:
        raise RuntimeError(f"extracted cycle failed validation: {sp.steps}")
    return OddCycleCertificate(sp, start)


def find_odd_cycle(g: SkipGraph) -> OddCycleCertificate | None:
    """An odd cycle of one block, or None when the block 2-colors."""
    found = solve_block(g)
    return found if isinstance(found, OddCycleCertificate) else None


def verify_discrepancy(coloring: Coloring, skips: Iterable[int], horizon: int) -> int:
    """Maximum |partial sum| over progressions s, 2s, ... up to the horizon.

    The block coloring indexes vertices 0..period-1 while the progressions
    index 1..horizon; the two rangings are mirror images, so position i
    reads the color of vertex -i mod period.  Each skip costs at most one
    period of work, however far the horizon reaches.
    """
    ss = sorted_skips(skips)
    if horizon < max(ss):
        raise ValueError(f"horizon {horizon} is below max skip {max(ss)}")
    period = coloring.period
    values = coloring.values.astype(np.int64)
    worst = 0
    for s in ss:
        count = horizon // s
        # Term k of the progression reads vertex -k*s mod period, which
        # repeats every ``length`` terms.  With c the sum over one cycle
        # and P(r) the partial sums inside it, term n = q*length + r has
        # partial sum q*c + P(r).  That is convex in q, so the first and
        # the last full cycle, and the partial cycle after them, hold the
        # maximum.  Shifts stay Python integers, so no horizon overflows.
        length = period // math.gcd(s, period)
        k = np.arange(1, min(count, length) + 1, dtype=np.int64)
        sums = np.cumsum(values[k * (-s % period) % period])
        full, rest = divmod(count, length)
        cycle_sum = int(sums[-1])
        parts = [(sums[:rest], full * cycle_sum)]
        if full:
            parts += [(sums, 0), (sums, (full - 1) * cycle_sum)]
        for part, shift in parts:
            if len(part):
                worst = max(worst, abs(int(part.max()) + shift), abs(int(part.min()) + shift))
    return worst
