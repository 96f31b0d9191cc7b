"""Independent output checks for the benchmark.

Nothing here imports hapdisc: walks are re-traced step by step, colorings
are checked pair by pair with numpy, weak realizability of small patterns
is decided by scanning every start in one period, and equal-sum witnesses
are summed directly.  A check returns a reason string on failure and None
when the output is correct.
"""

from __future__ import annotations

import math

import numpy as np


def walk_failure(steps, start, skips=None, closed=False, strict=True):
    """Re-trace signed ``steps`` from ``start``.

    Every step must leave a nonnegative term that is an even multiple of
    its skip (up step) or an odd multiple (down step).  ``strict`` forbids
    repeated terms; ``closed`` asks for an odd cycle returning to the start.
    """
    if not steps:
        return "empty walk"
    t = start
    seen = {t}
    for k, (sign, a) in enumerate(steps):
        if skips is not None and a not in skips:
            return f"step {k} uses skip {a} outside the set"
        if sign not in (1, -1) or t < 0 or t % (2 * a) != (0 if sign > 0 else a):
            return f"step {k} ({sign:+d}{a}) cannot leave term {t}"
        t += sign * a
        if closed and k == len(steps) - 1:
            break
        if strict and t in seen:
            return f"term {t} repeats after step {k}"
        seen.add(t)
    if closed:
        if t != start:
            return "cycle does not close"
        if len(steps) % 2 == 0:
            return "cycle has even length"
    return None


def terms_failure(terms, steps):
    """The listed terms must be the partial sums of the steps."""
    if len(terms) != len(steps) + 1:
        return "term count does not match the steps"
    for k, (sign, a) in enumerate(steps):
        if terms[k + 1] != terms[k] + sign * a:
            return f"term {k + 1} is not the partial sum"
    return None


def cycle_json_failure(cert, skips):
    """Check an odd-cycle certificate as printed by ``color``/``cycle``."""
    steps = list(zip(cert["signs"], cert["skips"]))
    return terms_failure(cert["terms"], steps) or walk_failure(
        steps, cert["start"], set(skips), closed=True
    )


def coloring_failure(values, skips, period):
    """``values`` (+1/-1 per vertex of one block) must give opposite
    colors to every pair (2ms, 2ms + s)."""
    if values.shape != (period,) or not np.all(np.abs(values) == 1):
        return "coloring is not a +1/-1 vector over one period"
    for s in skips:
        left = np.arange(0, period, 2 * s)
        if np.any(values[left] == values[left + s]):
            return f"an {s}-pair gets equal colors"
    return None


def coloring_json_failure(out, skips, period):
    """Check the output of ``color --json`` for a 2-colorable block.

    The ~3 bytes per vertex are decoded as one byte array, not one Python
    string per vertex, so the check stays below the program's own peak
    memory.
    """
    head = f'{{"period": {period}, "coloring": "'
    if not out.startswith(head) or not out.endswith('"}\n'):
        return "output is not {period, coloring} for the right period"
    raw = np.frombuffer(out.encode("ascii"), dtype=np.uint8)[len(head) : -3]
    if raw.size % 3 != 2 or np.any(raw[1::3] != ord("1")) or np.any(raw[2::3] != ord(" ")):
        return "coloring is not a list of +1/-1"
    values = np.zeros(raw.size // 3 + 1, dtype=np.int8)
    values[raw[0::3] == ord("+")] = 1
    values[raw[0::3] == ord("-")] = -1
    return coloring_failure(values, skips, period)


def least_start(steps):
    """Least start of a weak walk (terms may repeat), by scanning one
    period 2*lcm of the skips; None when no start works."""
    period = 2 * math.lcm(*(a for _, a in steps))
    t = np.arange(period, dtype=np.int64)
    alive = np.ones(period, dtype=bool)
    for sign, a in steps:
        alive &= t % (2 * a) == (0 if sign > 0 else a)
        t += sign * a
    hits = np.flatnonzero(alive)
    return int(hits[0]) if hits.size else None


def ess_witness_failure(elements, x, y):
    xs, ys = set(x), set(y)
    if len(xs) != len(x) or len(ys) != len(y) or xs & ys:
        return "witness index sets overlap or repeat"
    if len(x) != len(y) + 1:
        return "|X| != |Y| + 1"
    if not all(0 <= i < len(elements) for i in xs | ys):
        return "witness index out of range"
    if sum(elements[i] for i in x) != sum(elements[i] for i in y):
        return "witness sums differ"
    return None


def reduction_failure(elements, big_m, r, s, t):
    """The transformed instance must follow its defining formulas."""
    a = sorted(elements)
    n = len(a)
    diffs = math.prod(a[j] - a[i] for i in range(n) for j in range(i + 1, n))
    if big_m != n * diffs * math.prod(n * v + 1 for v in a):
        return "M does not match its formula"
    twice_bound = n * (n * (a[-1] - a[0]) + 1) + 2  # 2 * ((n/2)(n(a_n - a_1) + 1) + 1)
    if r % n or 2 * r <= twice_bound or 2 * (r - n) > twice_bound:
        return "r is not the least multiple of n above the bound"
    if list(s) != [n * big_m * v + r * big_m + 1 for v in a] or t != (r - 1) * big_m + 1:
        return "s or t does not match its formula"
    return None


def block_is_bipartite(skips):
    """2-colorability of one period block, from the component count of its
    double cover (scipy): the block 2-colors iff no vertex shares a
    component with its own copy."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    period = 2 * math.lcm(*skips)
    left = np.concatenate([np.arange(0, period, 2 * s) for s in skips])
    right = left + np.concatenate([np.full(period // (2 * s), s) for s in skips])
    a = np.concatenate([left, left + period])
    b = np.concatenate([right + period, right])
    graph = coo_matrix((np.ones(a.size, dtype=np.int8), (a, b)), shape=(2 * period, 2 * period))
    _, labels = connected_components(graph, directed=False)
    return not np.any(labels[:period] == labels[period:])


def _signed_sums(values):
    """(sum of +-chosen values, count of + minus count of -) over all
    3**n ways to put each value in X, in Y or in neither."""
    sums, counts = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
    for v in values:
        sums = np.concatenate([sums, sums + v, sums - v])
        counts = np.concatenate([counts, counts + 1, counts - 1])
    return sums, counts


def ess_has_witness(elements):
    """Equal-sum subsets with |X| = |Y| + 1, by meeting in the middle."""
    half = len(elements) // 2
    sa, ca = _signed_sums(elements[:half])
    sb, cb = _signed_sums(elements[half:])
    for c in np.unique(ca):
        if np.intersect1d(sa[ca == c], -sb[cb == 1 - c]).size:
            return True
    return False
