"""The skip graph on one period block: coloring and odd-cycle extraction.

For each skip s the graph joins every even multiple of s to the next odd
multiple, so the progression s, 2s, 3s, ... is paired off as (s, 2s),
(3s, 4s), ...  mirrored to start at 0.  The structure repeats with period
2*lcm(S) and every edge stays inside one block, so a single block decides
everything: either it 2-colors (discrepancy 1 is achievable) or it holds
an odd cycle (the skip set forces discrepancy two).  ``solve_block``
returns whichever of the two certificates exists.

Two algorithms decide a block, and both leave each component's least
vertex +1.  Below 2**16 vertices a BFS walks the block, computing
adjacency on demand: a vertex v that is a multiple of s has exactly one
s-neighbour, v + s when v % 2s is 0 and v - s when it is s, so degrees
are at most |S|.  Its one byte per vertex ends as the coloring and until
then marks the uncolored multiples of a skip, from which it takes its
roots in ascending order, so it never visits an isolated vertex.
From 2**16 on a numpy union-find with parity decides the block; the BFS
then runs only on an odd component, to build its cycle.  The cut is set
by the benchmark, not by solve time (see ``_VECTOR_MIN_PERIOD``).  The
union-find contracts each edge of the smallest skip, a pair of vertices
of opposite colors, into one node, and its nodes are those pairs and the
other multiples of a larger skip, numbered by least vertex.  That relabel
is monotone, so the least label of a component is its least vertex and
both algorithms still agree.  The union-find reads the larger skips'
edges, made per skip in chunks, for two rounds only: an edge whose ends
share a root shares it for good, so later rounds read just the few
edges that still join two roots.  No graph is materialized either way,
and either way a ``Coloring`` holds the BFS's sign bytes.  Only the
union-find, ``verify_discrepancy`` and ``Coloring.values`` import numpy,
so the cut also decides whether ``color`` and ``cycle`` load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from .pattern import DEFAULT_PERIOD_CAP, SignedPattern, _walk_order, sorted_skips
from .realizability import valid_odd_cycle

if TYPE_CHECKING:
    import numpy as np

# Blocks of at least this many vertices are decided by the parity
# union-find, smaller ones by the BFS alone.  On the ``sweep`` workload's
# blocks (2-core Xeon, Python 3.11.7) the two break even near 2**9
# vertices: with the cut at 2**16, 2**9 and 1, ``sweep`` ran 1137, 2730
# and 2617 ops/s (medians of 3 runs).  But perfbench keeps about 140 B of
# bookkeeping per completed op, so its peak_rss_mb rose with the op count
# alone, 38.9 to 44.5 and 44.1, past the benchmark's 10 % bound.  Lower the cut
# once it bounds that; below the cut ``color`` and ``cycle`` load no numpy.
_VECTOR_MIN_PERIOD = 1 << 16
_CHUNK = 1 << 16  # edges, or nodes, per numpy batch


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
    """Signs of one period block, extended periodically: 0x01 for +1, 0xFF for -1."""

    signs: bytearray

    @property
    def period(self) -> int:
        return len(self.signs)

    @property
    def values(self) -> np.ndarray:
        import numpy as np

        return np.frombuffer(self.signs, dtype=np.int8)  # int8, sharing the bytes

    def __getitem__(self, v: int) -> int:
        return 1 if self.signs[v % len(self.signs)] == 1 else -1

    def line(self) -> str:
        text = bytearray(b"+1 ") * len(self.signs)
        text[0::3] = self.signs.translate(bytes.maketrans(b"\x01\xff", b"+-"))
        del text[-1]  # the trailing space, in place: one 3n-byte buffer per line
        return text.decode("ascii")

    @classmethod
    def from_values(cls, values: Sequence[int]) -> "Coloring":
        try:
            signs = bytearray(map({1: 0x01, -1: 0xFF}.__getitem__, values))
        except (KeyError, TypeError):  # not +1/-1, 257 included, or not a number
            signs = bytearray()
        if not signs:
            raise ValueError("coloring must be a nonempty sequence of +1/-1")
        return cls(signs)


@dataclass(frozen=True)
class OddCycleCertificate:
    """A concrete odd cycle: proof that the skip set forces discrepancy two."""

    signed_pattern: SignedPattern
    start: int


def _parity_union_find(g: SkipGraph) -> bytearray | int:
    """Decide one block without walking it: the sign bytes of its
    2-coloring, or ``first``, the least vertex of the first component that
    holds an edge between two vertices of one parity.

    The smallest skip s0 pairs its multiples off, (2k*s0, 2k*s0 + s0), and
    the two ends of a pair always take opposite colors.  So each pair is
    contracted into one node, and every other vertex with an edge, a
    multiple of a larger skip alone, is a node by itself.  The nodes are
    numbered in ascending order of their least vertex, and each end of a
    larger skip's edge reads as 2*label + 1 at a pair's odd vertex, else
    2*label: its low bit is the end's parity relative to its node.  A pair
    on no larger skip's edge is a whole component and stays out: its even
    end is +1, its odd end -1.  The relabel is monotone: the least label
    of a component is its least vertex, and a parent still precedes its
    child.  Roots, parities and ``first`` are therefore those of the
    whole block.

    ``key[i]`` is 2*parent + the parity of node i relative to its parent.
    Each round hooks the root of every edge's larger end to the smaller
    root, with the parity the edge implies, keeping the least offer per
    root (the hooking of Shiloach and Vishkin, J. Algorithms 3, 1982), then
    jumps pointers.  Rounds repeat until no edge joins two roots.  A root
    only ever hooks to a smaller one, so each component ends rooted at its
    least node, and the parity relative to it is the BFS's coloring
    exactly; isolated vertices stay +1.

    The first round hooks batch after batch, on keys that earlier batches
    may have left stale; each hook it makes is still implied by the edges,
    and the second round reads every edge again.  Both rounds make the
    edges afresh per chunk, so that none holds every edge of a large block.
    Ends that share a root share it for good, at a fixed relative parity,
    so a settled edge never hooks again: the second round keeps only the
    edges that still join two roots, a few percent of them, and later
    rounds read just those.  Such a round jumps only the roots hooked since
    the first round and the nodes of its edges, and one pass at the end
    puts every node on its root.  A settled edge of equal parities closes
    an odd cycle and is noted as it is seen; ``first`` is the least final
    root among the noted edges.
    """
    period = g.period
    if 2 * period >= 1 << 63:  # keys would overflow int64 before anything is allocated
        raise MemoryError(f"a block of {period} vertices cannot be allocated")
    import numpy as np

    dtype = np.int32 if 2 * period < 1 << 31 else np.int64
    s0 = g.skips[0]
    head = np.zeros(period, dtype=bool)  # True at the least vertex of each node
    for s in g.skips[1:]:
        head[::s] = True
    head[:: 2 * s0] |= head[s0 :: 2 * s0]  # a pair's node starts at its even end
    head[s0 :: 2 * s0] = False
    live = np.flatnonzero(head).astype(dtype)  # each node's least vertex, ascending
    n = live.size
    end = np.empty(period, dtype=dtype)  # read at the ends of larger skips' edges only
    end[live] = np.arange(0, 2 * n, 2, dtype=dtype)
    end[s0 :: 2 * s0] = end[:: 2 * s0] | 1
    key = np.arange(0, 2 * n, 2, dtype=dtype)
    for u, w in _edges(g, end):
        _hook(key, u, w)
    for lo in range(0, n, _CHUNK):  # parents precede children: earlier batches are flat
        _jump(key, slice(lo, lo + _CHUNK))
    empty = np.empty(0, dtype=dtype)  # so that a lone skip, with no edges, concatenates
    hooked = empty  # the roots hooked since the first round
    batches = _edges(g, end)
    odd = [empty]
    while True:
        kept_u, kept_w = [empty], [empty]
        for u, w in batches:
            ku, kw = _up(key, u), _up(key, w)
            joins = ku >> 1 != kw >> 1
            odd.append(u[~joins & ((ku ^ kw) & 1 == 0)])  # one root, equal parities
            kept_u.append(u[joins])
            kept_w.append(w[joins])
        u, w = np.concatenate(kept_u), np.concatenate(kept_w)
        if not u.size:
            break
        nu, nw = u >> 1, w >> 1
        ku, kw = key[nu], key[nw]
        hooked = np.concatenate([hooked, _hook(key, u, w)])
        _jump(key, hooked)
        key[nu] = _up(key, ku)  # the nodes onto their new roots
        key[nw] = _up(key, kw)
        batches = [(u, w)]
    if hooked.size:  # every parent is now a root or points at one
        for lo in range(0, n, _CHUNK):
            part = key[lo : lo + _CHUNK]
            part[...] = _up(key, part)
    odd = np.concatenate(odd)
    if odd.size:
        return int(live[(key[odd >> 1] >> 1).min()])
    signs = bytearray(b"\x01") * period  # the BFS's bytes: isolated vertices stay +1
    view = np.frombuffer(signs, dtype=np.int8)
    view[live] = 1 - 2 * (key & 1).astype(np.int8)
    view[s0 :: 2 * s0] = -view[:: 2 * s0]  # each pair's odd end
    return signs


def _up(key: np.ndarray, k: np.ndarray) -> np.ndarray:
    """One pointer step: for each k = 2*node + parity, a key or an edge end,
    the node's key with that parity folded in (2*parent + parity)."""
    return key[k >> 1] ^ (k & 1)


def _hook(key: np.ndarray, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Hook the root of each edge's larger end to the smaller root, keeping
    the least offer per root; returns the roots that were offered one."""
    import numpy as np

    ku, kw = _up(key, u), _up(key, w)
    ru, rw = ku >> 1, kw >> 1
    flip = (ku ^ kw ^ 1) & 1  # parity of rw relative to ru
    top = np.maximum(ru, rw)
    np.minimum.at(key, top, 2 * np.minimum(ru, rw) + flip)
    return top


def _edges(g: SkipGraph, end: np.ndarray):
    """The edges (u, u + s) of each skip s but the smallest, u an even
    multiple of s, as the ends ``end`` gives them, in batches of at most
    ``_CHUNK``."""
    period = g.period
    for s in g.skips[1:]:
        stride = 2 * s * _CHUNK
        for lo in range(0, period, stride):
            hi = min(lo + stride, period)
            yield end[lo : hi : 2 * s], end[lo + s : hi : 2 * s]


def _jump(key: np.ndarray, at) -> None:
    """Jump the pointers ``key[at]`` until each points at a root.  The
    parent of each must be a root, in ``at``, or point at a root."""
    import numpy as np

    while True:
        k = key[at]
        up = _up(key, k)
        if np.array_equal(up, k):  # every parent is a root
            return
        key[at] = up


def solve_block(g: SkipGraph) -> Coloring | OddCycleCertificate:
    """Decide one block: a 2-coloring, or an odd cycle built by BFS from
    the first edge that joins two vertices of one color.

    A block of at least ``_VECTOR_MIN_PERIOD`` vertices is decided by
    ``_parity_union_find``; on an odd cycle the BFS starts at the least
    vertex of the first odd component.  The components before it 2-color
    and share no vertex with it, so the certificate is the one a BFS over
    the whole block would build."""
    period = g.period
    skips = g.skips
    first = 0
    if period >= _VECTOR_MIN_PERIOD:
        decided = _parity_union_find(g)
        if not isinstance(decided, int):
            return Coloring(decided)
        first = decided
    # One byte per vertex, the coloring's signs at the end: 1 (+1) or 0xFF
    # (-1) once colored, 3 while a vertex with an edge is not.  Roots are
    # found by bytes.find; isolated vertices are never visited and stay 1.
    color = bytearray(b"\x01") * period
    for s in skips:
        color[::s] = b"\x03" * (period // s)
    pairs = [(s, 2 * s) for s in skips]
    root = color.find(3, first)
    while root >= 0:
        color[root] = 1
        order = [root]  # the BFS queue, kept whole: it stands in for parents
        for v in order:
            cv = color[v]
            for s, s2 in pairs:
                r = v % s2
                if r == 0:
                    u = v + s
                elif r == s:
                    u = v - s
                else:
                    continue
                cu = color[u]
                if cu == 3:
                    color[u] = cv ^ 0xFE  # swaps 1 and 0xFF
                    order.append(u)
                elif cu == cv:
                    return _odd_cycle(g, order, v, u)
        root = color.find(3, root + 1)
    return Coloring(color)


def two_color(g: SkipGraph) -> Coloring | None:
    """Bipartition of one block, or None when an odd cycle exists."""
    found = solve_block(g)
    return found if isinstance(found, Coloring) else None


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
    # the cycle closed at its least vertex, in the orientation first in walk order
    i0 = vertices.index(min(vertices))
    closed = vertices[i0:] + vertices[: i0 + 1]
    orientations = (
        tuple((1 if y > x else -1, abs(y - x)) for x, y in zip(w, w[1:])) for w in (closed, closed[::-1])
    )
    sp = SignedPattern(min(orientations, key=_walk_order))
    assert all(skip in g.skips for skip in sp.skips)
    verdict = valid_odd_cycle(sp)
    if not verdict.valid:
        raise RuntimeError(f"extracted cycle failed validation: {sp.steps}")
    return OddCycleCertificate(sp, closed[0])


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
    import numpy as np

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
