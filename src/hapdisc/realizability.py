"""Realizability of signed patterns in the skip graph.

A signed pattern can be traced somewhere in the graph (possibly reusing
terms or arcs, "weakly realizable") exactly when every subpath satisfies
two arithmetic conditions on its end skips a_i, a_j and the signed sum I
of the skips strictly between them:

* divisibility: gcd(a_i, a_j) divides I;
* parity: I is an even multiple of the gcd if and only if the sign of
  the end skip in the lower 2-adic class points the required way (the
  lower-class skip on the left must be negative, on the right positive,
  and equal classes force opposite signs).

Equivalently, the start term T must solve one congruence per step (step
k leaves from an even multiple of a_k when positive, an odd multiple when
negative).  One signing walk decides every verdict: it merges these
congruences step by step, admitting + then - on an unsigned pattern by
one residue test, and reports the least nonnegative solution as the
witness start.  Strict realizability additionally demands that the walk
repeat no term or arc (an arc repeat implies a term repeat, so only
terms are checked), which depends only on the pattern, not on the
chosen start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .numeric import two_adic_valuation
from .pattern import AnyPattern, Pattern, SignedPattern, realize

FORBIDDEN = "forbidden"
WEAKLY_REALIZABLE = "weakly-realizable"
REALIZABLE = "realizable"


@dataclass(frozen=True)
class SubpathReport:
    """Divisibility/parity verdict for the subpath spanned by steps i..j."""

    i: int
    j: int
    intermediate_sum: int
    gcd: int
    divisibility_ok: bool
    parity_ok: bool

    @property
    def ok(self) -> bool:
        return self.divisibility_ok and self.parity_ok

    @property
    def reason(self) -> str | None:
        if not self.divisibility_ok:
            return "divisibility"
        if not self.parity_ok:
            return "parity"
        return None


@dataclass(frozen=True)
class RealizabilityVerdict:
    status: str
    witness_start: int | None = None
    failure: SubpathReport | None = None
    signed: SignedPattern | None = None


@dataclass(frozen=True)
class CycleVerdict:
    """``valid_odd_cycle``'s result; ``reason`` is ``even-length``,
    ``nonzero-sum``, ``not-weakly-realizable`` or ``repeated-term``."""

    valid: bool
    signed_sum: int
    witness_start: int | None = None
    reason: str | None = None


def _span(
    i: int, j: int, first: tuple[int, int], inner: int, last: tuple[int, int]
) -> SubpathReport:
    """The verdict on the span of steps i..j: ``first`` and ``last`` are its
    (sign, skip) end steps, ``inner`` the signed sum strictly between them."""
    (sign_first, a_first), (sign_last, a_last) = first, last
    g = math.gcd(a_first, a_last)
    if inner % g:
        return SubpathReport(i, j, inner, g, False, False)
    even = (inner // g) % 2 == 0
    va = two_adic_valuation(a_first)
    vb = two_adic_valuation(a_last)
    if va < vb:
        required = sign_first == -1
    elif va > vb:
        required = sign_last == 1
    else:
        required = sign_first == -sign_last
    return SubpathReport(i, j, inner, g, True, even == required)


def check_subpath(sp: SignedPattern, i: int, j: int) -> SubpathReport:
    """Report the conditions for the subpath from step i to step j (i < j)."""
    n = len(sp)
    if not (0 <= i < j < n):
        raise IndexError(f"need 0 <= i < j < {n}, got i={i}, j={j}")
    steps = sp.steps
    inner = sum(sign * skip for sign, skip in steps[i + 1 : j])
    return _span(i, j, steps[i], inner, steps[j])


def _subpath_reports(sp: SignedPattern) -> Iterator[SubpathReport]:
    """``check_subpath(sp, i, j)`` for every i < j, ordered by i and then
    j; a running intermediate sum keeps the whole scan O(n^2)."""
    steps = sp.steps
    for i, first in enumerate(steps):
        inner = 0
        for j in range(i + 1, len(steps)):
            yield _span(i, j, first, inner, steps[j])
            sign_j, a_j = steps[j]
            inner += sign_j * a_j


def _sign_free_divisibility_failure(p: Pattern) -> SubpathReport | None:
    """A subpath whose divisibility fails under every sign assignment.

    For the span (i, j) the realizable intermediate sums modulo
    gcd(a_i, a_j) are exactly those reachable by +/- choices, so an empty
    intersection with 0 is a sign-independent obstruction.  One pass per
    left end i keeps one set of reachable residues per distinct gcd, folds
    each inner skip into it and drops it after that gcd's last span, so
    every set is folded once over that gcd's longest span: never more work
    than rebuilding the residues of that span alone.  That is still
    subset-sum modulo the gcd, so when the end skips of a span (i, j) share
    a large gcd its set can hold up to 2^(j-i-1) residues.
    """
    skips = p.skips
    for i, a_i in enumerate(skips):
        last = {math.gcd(a_i, a_j): j for j, a_j in enumerate(skips[i + 1 :], i + 1)}
        reachable = dict.fromkeys(last, {0})
        inner = 0
        for j, x in enumerate(skips[i + 1 :], i + 1):
            g = math.gcd(a_i, x)
            if 0 not in (reachable.pop(g) if last[g] == j else reachable[g]):
                return SubpathReport(i, j, inner, g, False, False)
            for m, rs in reachable.items():
                reachable[m] = {(r + s) % m for r in rs for s in (x, -x)}
            inner += x
    return None


def _step_row(modulus: int, a: int) -> tuple[int, bool, int, int]:
    """The step row ``(g, both, step, inv)`` of skip ``a`` against a start
    congruence modulo ``modulus``: g = gcd(modulus, 2a), ``both`` whether
    g divides a, step = 2a / g and inv = (modulus / g)^-1 mod step.  The
    step congruence (c, 2a) merges into (residue, modulus) iff g divides
    c - residue; the signs' c differ by a, which is 0 or g/2 mod g, so
    both pass only when g divides a.  For 0 <= residue < modulus the least
    common solution is residue + modulus * ((c - residue) / g * inv mod
    step), modulo modulus * step: the identity when step == 1, i.e. when
    2a divides the modulus."""
    g = math.gcd(modulus, 2 * a)
    step = 2 * a // g
    return g, a % g == 0, step, pow(modulus // g, -1, step)


def _signings(p: AnyPattern) -> Iterator[tuple[SignedPattern, int]]:
    """Weakly realizable signings of ``p`` in lexicographic order (+ before
    -), each with its least witness start.  A signed pattern offers its own
    sign at each step, an unsigned one + then -.  The walk goes level by
    level over live prefixes (signs, step offset, least start).  After k
    steps every one has modulus lcm(2a_0 .. 2a_{k-1}), whatever its signs,
    so one step row per depth gates and merges them all; the walk stops
    as soon as no prefix is live.

    At most two signings are yielded (proved).  A start fixes its walk,
    since a step leaves up from an even multiple of its skip and down from
    an odd one.  Let two walks first differ in sign at step k: their gap
    is a multiple of every 2a_i (i < k) and an odd multiple of a_k, so
    v2(a_k) > v2(a_i) for i < k.  From step k on the gap keeps 2-adic
    valuation v2(a_k): equal signs leave it alone, and opposite signs need
    it to be an odd multiple of a_j and leave it one.  Both walks stand on
    multiples of every later a_j, so v2(a_j) <= v2(a_k).  Of three
    signings, two agree at the first step k where the three are not all
    equal, and first differ at some k' > k, so v2(a_k') > v2(a_k) >=
    v2(a_k'), a contradiction.  Every prefix is a pattern too, so at most
    two prefixes per depth stay live and the walk makes O(n) merges."""
    skips = p.skips
    offers = [(sign,) for sign in p.signs] if isinstance(p, SignedPattern) else [(1, -1)] * len(skips)
    live: list[tuple[tuple[int, ...], int, int]] = [((), 0, 0)]
    modulus = 1
    for a, offer in zip(skips, offers):
        g, _, step, inv = _step_row(modulus, a)
        advanced = []
        for signs, offset, residue in live:
            for sign in offer:
                diff = (a if sign < 0 else 0) - offset - residue
                if diff % g == 0:
                    merged = residue + modulus * (diff // g * inv % step)
                    advanced.append((signs + (sign,), offset + sign * a, merged))
        if not advanced:
            return
        live, modulus = advanced, modulus * step
    for signs, _, start in live:
        yield SignedPattern(tuple(zip(signs, skips))), start


def _forbidden(p: AnyPattern) -> RealizabilityVerdict:
    """FORBIDDEN with a failing subpath: the first failing span of a signed
    pattern; for an unsigned one a sign-free divisibility failure, else the
    first failing span of its all-plus signing."""
    if isinstance(p, Pattern):
        failure = _sign_free_divisibility_failure(p)
        if failure is not None:
            return RealizabilityVerdict(FORBIDDEN, failure=failure)
        p = SignedPattern(tuple((1, s) for s in p.skips))
    failure = next((report for report in _subpath_reports(p) if not report.ok), None)
    if failure is None:
        raise RuntimeError(
            "congruence system unsolvable but every subpath passed; "
            f"pattern {p.steps} breaks the engine's core equivalence"
        )
    return RealizabilityVerdict(FORBIDDEN, failure=failure)


def weakly_realizable(sp: SignedPattern) -> RealizabilityVerdict:
    """Decide weak realizability and produce the least witness start: the
    first signing the walk yields, else the lexicographically first
    failing (i, j) subpath."""
    for signed, start in _signings(sp):
        return RealizabilityVerdict(WEAKLY_REALIZABLE, start, signed=signed)
    return _forbidden(sp)


def strict_realizability(p: AnyPattern) -> RealizabilityVerdict:
    """Three-way verdict: forbidden, weakly realizable only, or realizable.

    Each weakly realizable signing is checked at its least witness start;
    term and arc coincidences are start-independent, so one witness
    decides (an arc repeat implies a term repeat, so terms alone are
    compared).  The lexicographically least strict signing is reported,
    else the least weak one.  A signed pattern has one signing, itself.
    """
    first_weak: RealizabilityVerdict | None = None
    for sp, start in _signings(p):
        if realize(sp, start).is_strict():
            return RealizabilityVerdict(REALIZABLE, start, signed=sp)
        if first_weak is None:
            first_weak = RealizabilityVerdict(WEAKLY_REALIZABLE, start, signed=sp)
    return first_weak if first_weak is not None else _forbidden(p)


def valid_odd_cycle(sp: SignedPattern) -> CycleVerdict:
    """Check that ``sp`` closes into an odd cycle somewhere in the graph.

    Valid means: odd length, signed sum zero, weakly realizable, and the
    closed walk repeats no arc and no term other than its final return to
    the start.  An arc repeat implies a term repeat here: an odd cycle has
    at least three steps, and on three or more distinct terms t0..tn-1 the
    arcs {tk, tk+1 mod n} are distinct.
    """
    total = sp.signed_sum
    if len(sp) % 2 == 0:
        return CycleVerdict(False, total, reason="even-length")
    if total != 0:
        return CycleVerdict(False, total, reason="nonzero-sum")
    found = next(_signings(sp), None)
    if found is None:
        return CycleVerdict(False, total, reason="not-weakly-realizable")
    start = found[1]
    walk = realize(sp, start)
    if walk.repeated_terms(as_cycle=True):
        return CycleVerdict(False, total, witness_start=start, reason="repeated-term")
    return CycleVerdict(True, total, witness_start=start)
