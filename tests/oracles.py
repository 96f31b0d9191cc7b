"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's congruence machinery: walks are
verified by literally stepping through one period of the block graph,
and congruence systems by scanning residues.  They stay slow and dumb on
purpose so the fast paths have something honest to disagree with.
"""

from __future__ import annotations

import itertools
import math

from hapdisc.pattern import SignedPattern


def walk_attempt(sp: SignedPattern, start: int) -> bool:
    """Trace sp from start, checking each step's multiple condition."""
    t = start
    for sign, skip in sp.steps:
        want = 0 if sign > 0 else skip
        if t < 0 or t % (2 * skip) != want:
            return False
        t += sign * skip
    return True


def least_walk_start(sp: SignedPattern) -> int | None:
    """Scan every start in one period of the block graph."""
    period = 2 * math.lcm(*sp.skips)
    for t0 in range(period):
        if walk_attempt(sp, t0):
            return t0
    return None


def walk_exists(sp: SignedPattern) -> bool:
    return least_walk_start(sp) is not None


def span_walk_exists(first: tuple[int, int], inner: int, last: tuple[int, int]) -> bool:
    """Whether two (sign, skip) steps with signed sum ``inner`` between
    them can both leave from the multiple their signs require: scan every
    start in one period of the pair."""
    (sign_i, a_i), (sign_j, a_j) = first, last
    want_i = 0 if sign_i > 0 else a_i
    want_j = 0 if sign_j > 0 else a_j
    return any(
        t % (2 * a_i) == want_i and (t + sign_i * a_i + inner) % (2 * a_j) == want_j
        for t in range(math.lcm(2 * a_i, 2 * a_j))
    )


def weak_signings(skips: list[int]) -> list[tuple[tuple[int, ...], int]]:
    """Every one of the 2^n signings of ``skips`` that walks somewhere, in
    lexicographic order (+ before -), each with its least start in one
    period of the block graph."""
    found = []
    for signs in itertools.product((1, -1), repeat=len(skips)):
        start = least_walk_start(SignedPattern(tuple(zip(signs, skips))))
        if start is not None:
            found.append((signs, start))
    return found


def sign_free_span_failure(skips: list[int]) -> tuple[int, int, int, int] | None:
    """The first span (i, j) with j >= i + 2, by i and then j, where no
    +/- signing of the inner skips sums to a multiple of gcd(a_i, a_j), as
    (i, j, plain inner sum, gcd); every signing is tried."""
    n = len(skips)
    for i in range(n):
        for j in range(i + 2, n):
            g = math.gcd(skips[i], skips[j])
            inner = skips[i + 1 : j]
            signings = itertools.product((1, -1), repeat=len(inner))
            if all(sum(s * x for s, x in zip(signs, inner)) % g for signs in signings):
                return i, j, sum(inner), g
    return None


def discrepancy_scan(values: list[int], skips: list[int], horizon: int) -> int:
    """Max |partial sum| over progressions s, 2s, ... up to the horizon,
    term by term; position i reads the color of vertex -i mod period."""
    period = len(values)
    worst = 0
    for s in skips:
        total = 0
        for i in range(s, horizon + 1, s):
            total += values[-i % period]
            worst = max(worst, abs(total))
    return worst


def brute_congruence_solution(pairs: list[tuple[int, int]]) -> int | None:
    """Least x in [0, lcm) satisfying every (residue, modulus) pair."""
    bound = math.lcm(*(m for _, m in pairs))
    for x in range(bound):
        if all(x % m == r % m for r, m in pairs):
            return x
    return None
