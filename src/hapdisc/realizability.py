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
negative).  One congruence test decides both conditions of a span: its
two end steps' congruences agree modulo 2 gcd(a_i, a_j).  One signing
walk decides every verdict: it merges the congruences step by step,
admitting + then - on an unsigned pattern by one residue test, and
reports the least nonnegative solution as the witness start, or else
the step k where every signing died.  Every forbidden pattern reports
the minimal window i..k that no signing fits, i the largest such start
(``_obstruction``).  Strict realizability additionally demands that the
walk repeat no term (an arc repeat implies one): the partial sums of
its signed steps decide that, whatever the start.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import NamedTuple

from .pattern import AnyPattern, Pattern, SignedPattern

FORBIDDEN = "forbidden"
WEAKLY_REALIZABLE = "weakly-realizable"
REALIZABLE = "realizable"


class SubpathReport(NamedTuple):
    """Divisibility/parity verdict for the subpath spanned by steps i..j.
    A window of an unsigned pattern that no signing fits has no single
    inner sum or gcd: both are None and its reason is ``no-signing``."""

    i: int
    j: int
    intermediate_sum: int | None
    gcd: int | None
    divisibility_ok: bool
    parity_ok: bool

    @property
    def ok(self) -> bool:
        return self.divisibility_ok and self.parity_ok

    @property
    def reason(self) -> str | None:
        if self.gcd is None:
            return "no-signing"
        if not self.divisibility_ok:
            return "divisibility"
        if not self.parity_ok:
            return "parity"
        return None


class RealizabilityVerdict(NamedTuple):
    status: str
    witness_start: int | None = None
    failure: SubpathReport | None = None
    signed: SignedPattern | None = None


class CycleVerdict(NamedTuple):
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
    # Step i needs T = [s_i < 0] a_i mod 2a_i and step j needs T + s_i a_i +
    # inner = [s_j < 0] a_j mod 2a_j: one T solves both iff they agree mod
    # 2g, i.e. (as -a_j = a_j mod 2g) iff 2g divides ``shifted``, which needs
    # g to divide inner.  The paper's 2-adic cases are which of a_i/g, a_j/g
    # is odd.
    shifted = inner + (a_first if sign_first > 0 else 0) + (a_last if sign_last < 0 else 0)
    return SubpathReport(i, j, inner, g, inner % g == 0, shifted % (2 * g) == 0)


def check_subpath(sp: SignedPattern, i: int, j: int) -> SubpathReport:
    """Report the conditions for the subpath from step i to step j (i < j)."""
    n = len(sp)
    if not (0 <= i < j < n):
        raise IndexError(f"need 0 <= i < j < {n}, got i={i}, j={j}")
    steps = sp.steps
    inner = sum(sign * skip for sign, skip in steps[i + 1 : j])
    return _span(i, j, steps[i], inner, steps[j])


def _step_row(modulus: int, a: int) -> tuple[int, int, int]:
    """The step row ``(g, step, inv)`` of skip ``a`` against a start
    congruence (residue, modulus): g = gcd(modulus, 2a), step = 2a / g and
    inv = (modulus / g)^-1 mod step.  The step leaves the term w =
    residue + offset with shift 0 for +a and a for -a (an even or an odd
    multiple of a), and merges iff w = shift (mod g).  For 0 <= residue <
    modulus the least common solution is residue + modulus * ((shift - w)
    / g * inv mod step), modulo modulus * step: the identity when step ==
    1, i.e. when 2a divides the modulus."""
    g = math.gcd(modulus, 2 * a)
    step = 2 * a // g
    return g, step, pow(modulus // g, -1, step)


def _signings(p: AnyPattern) -> tuple[list[tuple[SignedPattern, int]], int]:
    """The weakly realizable signings of ``p`` in lexicographic order (+
    before -), each with its least witness start, and the step the walk
    died at: the first k such that steps 0..k have no signing (so steps
    0..k-1 have one), or len(p) when a signing walks.  A signed pattern
    offers its own sign at each step, an unsigned one + then -.  The walk
    goes level by level over live prefixes (signs, step offset, least
    start).  After k steps every one has modulus lcm(2a_0 .. 2a_{k-1}),
    whatever its signs, so one step row per depth gates and merges them
    all; the walk stops as soon as no prefix is live.

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
    for k, (a, offer) in enumerate(zip(skips, offers)):
        g, step, inv = _step_row(modulus, a)
        advanced = []
        for signs, offset, residue in live:
            for sign in offer:
                diff = (a if sign < 0 else 0) - offset - residue
                if diff % g == 0:
                    merged = residue + modulus * (diff // g * inv % step)
                    advanced.append((signs + (sign,), offset + sign * a, merged))
        if not advanced:
            return [], k
        live, modulus = advanced, modulus * step
    return [(SignedPattern(tuple(zip(signs, skips))), start) for signs, _, start in live], len(skips)


def _obstruction(p: AnyPattern, k: int) -> SubpathReport:
    """The window of steps i..k that no signing of ``p`` fits, where k is
    the step the signing walk died at and i the largest start such a
    window has (a lone step always walks, so i < k).  Steps i+1..k have a
    signing by the choice of i, and steps i..k-1 as part of steps 0..k-1,
    so every proper sub-window has one: the window is a minimal
    obstruction.  An unsigned window takes one walk per start.  A signed
    one is a system of congruences, solvable iff every pair is, and all
    pairs but (i, k) lie in the two shorter windows: that span decides it
    and is the report."""
    if isinstance(p, Pattern):
        skips = p.skips
        for i in range(k - 1, -1, -1):
            if not _signings(Pattern(skips[i : k + 1]))[0]:
                return SubpathReport(i, k, None, None, False, False)
    else:
        steps, inner = p.steps, 0
        for i in range(k - 1, -1, -1):
            report = _span(i, k, steps[i], inner, steps[k])
            if not report.ok:
                return report
            sign, a = steps[i]
            inner += sign * a
    raise RuntimeError(f"the signing walk died at step {k} of {p}, but every window ending there passed")


def _repeats_a_term(sp: SignedPattern, closed: bool = False) -> bool:
    """Whether the partial sums of ``sp``'s signed steps, from 0, hold a
    duplicate: whether its walk repeats a term, at every start.  With
    ``closed`` the last sum, a cycle's return to its start, is dropped."""
    sums = list(accumulate((sign * skip for sign, skip in sp.steps), initial=0))
    if closed:
        sums.pop()
    return len(set(sums)) < len(sums)


def weakly_realizable(sp: SignedPattern) -> RealizabilityVerdict:
    """Decide weak realizability and produce the least witness start: the
    signing the walk yields, else the minimal failing span that ends where
    the walk died (``_obstruction``)."""
    signings, k = _signings(sp)
    if not signings:
        return RealizabilityVerdict(FORBIDDEN, failure=_obstruction(sp, k))
    signed, start = signings[0]
    return RealizabilityVerdict(WEAKLY_REALIZABLE, start, signed=signed)


def strict_realizability(p: AnyPattern) -> RealizabilityVerdict:
    """Three-way verdict: forbidden, weakly realizable only, or realizable.

    A weakly realizable signing is strict when the partial sums of its
    signed steps repeat no value (``_repeats_a_term``): distinct terms give
    distinct arcs, and the least witness start solves every step's
    congruence, so its walk needs no parity check and never goes negative
    (a valid down step leaves (2q+1)a >= a).  The lexicographically least
    strict signing is reported, else the least weak one.  A signed pattern
    has one signing, itself.
    """
    signings, k = _signings(p)
    if not signings:
        return RealizabilityVerdict(FORBIDDEN, failure=_obstruction(p, k))
    strict = next((found for found in signings if not _repeats_a_term(found[0])), None)
    sp, start = strict or signings[0]
    return RealizabilityVerdict(WEAKLY_REALIZABLE if strict is None else REALIZABLE, start, signed=sp)


def valid_odd_cycle(sp: SignedPattern) -> CycleVerdict:
    """Check that ``sp`` closes into an odd cycle somewhere in the graph.

    Valid means: odd length, signed sum zero, weakly realizable, and the
    closed walk repeats no arc and no term but its return to the start,
    read off the partial sums of the signed steps (``_repeats_a_term``).
    An arc repeat implies a term repeat here: an odd cycle has at least
    three steps, and on three or more distinct terms t0..tn-1 the arcs
    {tk, tk+1 mod n} are distinct.
    """
    total = sp.signed_sum
    if len(sp) % 2 == 0:
        return CycleVerdict(False, total, reason="even-length")
    if total != 0:
        return CycleVerdict(False, total, reason="nonzero-sum")
    signings, _ = _signings(sp)
    if not signings:
        return CycleVerdict(False, total, reason="not-weakly-realizable")
    start = signings[0][1]
    if _repeats_a_term(sp, closed=True):
        return CycleVerdict(False, total, witness_start=start, reason="repeated-term")
    return CycleVerdict(True, total, witness_start=start)
