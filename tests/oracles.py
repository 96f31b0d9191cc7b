"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's congruence machinery: walks are
verified by literally stepping through one period of the block graph,
and congruence systems by scanning residues.  They stay slow and dumb on
purpose so the fast paths have something honest to disagree with.  The
general pairwise merge ``crt_merge`` and ``step_congruence`` are the
reference that the library's step row (``realizability._step_row``) is
checked against; they are themselves checked against the residue scan.
"""

from __future__ import annotations

import itertools
import math
from itertools import combinations, permutations

from hapdisc.pattern import SignedPattern
from hapdisc.reduction import ESSWitness


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


def longest_block_walk(
    skips: list[int], max_len: int, cycles: bool
) -> tuple[int, int, tuple[tuple[int, int], ...]] | None:
    """The search's row by brute force over one block [0, 2 * lcm(skips)):
    every walk of 1 to ``max_len`` steps with no repeated term from every
    vertex, or with ``cycles`` every closed walk of odd length >= 3 from
    its least vertex, ranked as the search ranks them: longest, then least
    start, then signs (+ first) and then skips, step by step.  A walk's
    start is the vertex it leaves from; the least one its steps walk from
    ranks first.  Returns (length, start, steps) of the first row, or None
    when there is none."""
    period = 2 * math.lcm(*skips)
    best = None
    steps: list[tuple[int, int]] = []

    def offer(start: int) -> None:
        nonlocal best
        key = (-len(steps), start, tuple(sign < 0 for sign, _ in steps), tuple(a for _, a in steps))
        if best is None or key < best[0]:
            best = key, (len(steps), start, tuple(steps))

    def extend(start: int, t: int, terms: set[int]) -> None:
        if len(steps) == max_len:
            return
        for a in skips:
            # up from an even multiple of a, down from an odd one
            r = t % (2 * a)
            if r not in (0, a):
                continue
            sign = 1 if r == 0 else -1
            u = t + sign * a
            steps.append((sign, a))
            if cycles and u == start and len(steps) >= 3 and len(steps) % 2:
                offer(start)
            if u not in terms and not (cycles and u < start):
                if not cycles:
                    offer(start)
                extend(start, u, terms | {u})
            steps.pop()

    for start in range(period):
        extend(start, start, {start})
    return None if best is None else best[1]


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


def has_signing(skips: list[int]) -> bool:
    """Whether any of the 2^n signings of ``skips`` walks somewhere: its
    steps' start congruences (``step_congruence``) merged one by one by
    ``crt_merge``.  No period is scanned, so 40-digit skips stay cheap."""
    for signs in itertools.product((1, -1), repeat=len(skips)):
        congruence: tuple[int, int] | None = (0, 1)
        offset = 0
        for sign, skip in zip(signs, skips):
            congruence = crt_merge(congruence, step_congruence(sign, skip, offset))
            if congruence is None:
                break
            offset += sign * skip
        else:
            return True
    return False


def cycle_witness(s: tuple[int, ...], t: int, sp: SignedPattern) -> ESSWitness:
    """The ESS witness read off an odd cycle over a transformed skip set
    {s_1..s_n, M, t}: the cycle oriented to step down along t (reversing
    it negates every step), X the indices i whose s_i it steps up once
    more than down, and Y those it steps down once more than up."""
    steps = sp.steps
    if sum(sign for sign, skip in steps if skip == t) > 0:
        steps = tuple((-sign, skip) for sign, skip in steps)
    net = [sum(sign for sign, skip in steps if skip == s_i) for s_i in s]
    return ESSWitness(
        tuple(i for i, c in enumerate(net) if c == 1),
        tuple(i for i, c in enumerate(net) if c == -1),
    )


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


def two_adic_valuation(n: int) -> int:
    return (n & -n).bit_length() - 1


def crt_merge(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int] | None:
    """Intersect two congruences ``(residue, modulus)``, or None when they
    are incompatible: the general pairwise merge that the library's step
    row specializes.

    Compatibility requires gcd(m_a, m_b) to divide the residue difference;
    the merged congruence lives modulo lcm(m_a, m_b), with its residue the
    least nonnegative solution whatever integer residues come in.  A
    modulus below 1 raises ValueError.
    """
    (ra, ma), (rb, mb) = a, b
    if ma < 1 or mb < 1:
        raise ValueError(f"modulus must be positive, got {ma} and {mb}")
    g = math.gcd(ma, mb)
    if (rb - ra) % g:
        return None
    lcm = ma // g * mb
    step = mb // g
    k = (rb - ra) // g * pow(ma // g, -1, step) % step
    return (ra + ma * k) % lcm, lcm


def step_congruence(sign: int, skip: int, offset: int) -> tuple[int, int]:
    """Constraint ``(residue, modulus)`` on the start term T for one step.

    ``offset`` is the signed sum of the earlier steps, so T + offset is the
    term the step leaves from; it must be an even multiple of the skip for
    an up step and an odd multiple for a down step.
    """
    return ((1 - sign) // 2) * skip - offset, 2 * skip


# The paper's conditions for 3- and 4-sets, written out literally on a
# gcd-reduced set: gcd-divides and 2-adic-class tests, no cycle search.


def ess_first_witness(elems: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The first equal-sum pair (X, Y), |X| = |Y| + 1, of the sorted
    ``elems`` as index tuples, by |Y| ascending, then X, then Y: the
    nested scan that ``reduction.ess_solve`` must agree with."""
    n = len(elems)
    indices = range(n)
    for k in range(1, (n - 1) // 2 + 1):
        for x in combinations(indices, k + 1):
            sx = sum(elems[i] for i in x)
            rest = [i for i in indices if i not in x]
            for y in combinations(rest, k):
                if sum(elems[i] for i in y) == sx:
                    return x, y
    return None


def _three_cycle_triple(elements: tuple[int, ...]) -> tuple[dict[str, int], list] | None:
    """First triple p + q = r with p and q in different 2-adic classes."""
    for c in elements:
        for p, q in combinations([e for e in elements if e < c], 2):
            if p + q != c:
                continue
            vp, vq = two_adic_valuation(p), two_adic_valuation(q)
            if vp == vq:
                continue
            hi, lo = (p, q) if vp > vq else (q, p)
            return {"a": hi, "b": lo, "c": c}, [(1, hi), (1, lo), (-1, c)]
    return None


def _five_cycle_two_even(elements: tuple[int, ...]) -> tuple[dict[str, int], list] | None:
    evens = [e for e in elements if e % 2 == 0]
    odds = [e for e in elements if e % 2]
    if len(evens) != 2 or len(odds) != 2:
        return None
    if two_adic_valuation(evens[0]) != two_adic_valuation(evens[1]):
        return None
    for a, b in permutations(evens, 2):
        if a % b:
            continue
        for x, y in permutations(odds, 2):
            if a != 2 * b + y - x:
                continue
            if b % math.gcd(a, x) or b % math.gcd(a, y):
                continue
            labeling = {"a": a, "b": b, "x": x, "y": y}
            return labeling, [(1, b), (-1, a), (1, b), (1, y), (-1, x)]
    return None


def _five_cycle_one_even(elements: tuple[int, ...]) -> tuple[dict[str, int], list] | None:
    evens = [e for e in elements if e % 2 == 0]
    odds = [e for e in elements if e % 2]
    if len(evens) != 1 or len(odds) != 3:
        return None
    a = evens[0]
    for x, y, z in permutations(odds, 3):
        if y % x:
            continue
        if x % math.gcd(y, z) or x % math.gcd(a, y):
            continue
        d = 2 * x - y - z
        if d == a:
            first = (-1, a)
        elif d == -a:
            first = (1, a)
        else:
            continue
        labeling = {"a": a, "x": x, "y": y, "z": z}
        return labeling, [first, (1, x), (-1, y), (1, x), (-1, z)]
    return None


def _seven_cycle(elements: tuple[int, ...]) -> tuple[dict[str, int], list] | None:
    if 1 not in elements:
        return None
    rest = [e for e in elements if e != 1]
    for a, x, y in permutations(rest, 3):
        if a % 2 or x % 2 == 0 or y % 2 == 0:
            continue
        if a != 2 * x + y - 3:
            continue
        if (a + 1) % x or math.gcd(a, y) != 1:
            continue
        labeling = {"a": a, "x": x, "y": y, "z": 1}
        steps = [(1, a), (1, 1), (-1, x), (1, 1), (-1, y), (1, 1), (-1, x)]
        return labeling, steps
    return None


_PAPER_CONDITIONS = {
    3: (("size3", _three_cycle_triple),),
    4: (
        ("size4-bullet-1", _three_cycle_triple),
        ("size4-bullet-2", _five_cycle_two_even),
        ("size4-bullet-3", _five_cycle_one_even),
        ("size4-bullet-4", _seven_cycle),
    ),
}


def paper_conditions(reduced: tuple[int, ...]) -> tuple[tuple[str, ...], dict[str, int] | None]:
    """The paper's conditions that a sorted gcd-reduced set satisfies, by
    name, and the labeling of the first one (None when none holds)."""
    hits = [(name, hit) for name, check in _PAPER_CONDITIONS.get(len(reduced), ()) if (hit := check(reduced))]
    return tuple(name for name, _ in hits), hits[0][1][0] if hits else None
