"""Property tests of the realizability checks, the block solver and the
discrepancy verifier against the brute-force oracles.

Pattern skips stay at most 8, so one period of any block graph drawn for
a pattern is at most 2 * lcm(1..8) = 1680 terms and every period scan
stays cheap; the block solver gets skip sets of periods up to 2^14, and
the classifier's cycles are scanned over periods up to 2^16.  The
oracles below check arcs as well as terms, as the paper's definition
reads; the library checks terms alone.
"""

from __future__ import annotations

import itertools
import math
from functools import reduce

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hapdisc.classify import classify
from hapdisc.numeric import crt_merge
from hapdisc.pattern import Pattern, SignedPattern, parse_pattern, realize
from hapdisc.realizability import (
    FORBIDDEN,
    REALIZABLE,
    WEAKLY_REALIZABLE,
    SubpathReport,
    _sign_free_divisibility_failure,
    _signings,
    _subpath_reports,
    check_subpath,
    strict_realizability,
    valid_odd_cycle,
    weakly_realizable,
)
from hapdisc.skipgraph import (
    Coloring,
    OddCycleCertificate,
    build_graph,
    solve_block,
    verify_discrepancy,
)
from oracles import (
    brute_congruence_solution,
    discrepancy_scan,
    least_walk_start,
    sign_free_span_failure,
    span_walk_exists,
    walk_attempt,
    weak_signings,
)

PROPERTY = settings(derandomize=True, deadline=None)

MAX_SKIP = 8
PERIOD = 2 * math.lcm(*range(1, MAX_SKIP + 1))

steps_st = st.tuples(st.sampled_from((1, -1)), st.integers(1, MAX_SKIP))
signed_patterns = st.lists(steps_st, min_size=1, max_size=8).map(
    lambda steps: SignedPattern(tuple(steps))
)
# skips at most 6 and at most 6 steps: 64 signings of 120-term periods
unsigned_patterns = st.lists(st.integers(1, 6), min_size=1, max_size=6).map(
    lambda skips: Pattern(tuple(skips))
)

# skip sets of 2-5 skips up to 24 whose block has at most 2^14 vertices
BLOCK_SETS = {
    k: [s for s in itertools.combinations(range(1, 25), k) if 2 * math.lcm(*s) <= 2**14]
    for k in range(2, 6)
}
skip_sets = st.integers(2, 5).flatmap(lambda k: st.sampled_from(BLOCK_SETS[k]))


@st.composite
def zero_sum_odd_patterns(draw) -> SignedPattern:
    """An even number of parity-valid steps from a random start, closed by
    one step back to it: zero-sum and odd, and often a valid cycle."""
    start = draw(st.integers(0, PERIOD - 1))
    t = start
    steps = []
    for _ in range(2 * draw(st.integers(1, 4))):
        skip = draw(st.sampled_from([a for a in range(1, MAX_SKIP + 1) if t % a == 0]))
        sign = 1 if t // skip % 2 == 0 else -1
        steps.append((sign, skip))
        t += sign * skip
    assume(1 <= abs(start - t) <= MAX_SKIP)
    steps.append((1 if start > t else -1, abs(start - t)))
    return SignedPattern(tuple(steps))


def _walk(sp: SignedPattern, start: int) -> tuple[list[int], list[frozenset[int]]]:
    """The terms of the walk from ``start`` and its arcs as endpoint sets."""
    terms = [start]
    for sign, skip in sp.steps:
        terms.append(terms[-1] + sign * skip)
    return terms, [frozenset(pair) for pair in zip(terms, terms[1:])]


def _distinct(xs: list) -> bool:
    return len(set(xs)) == len(xs)


@PROPERTY
@given(signed_patterns, st.integers(0, PERIOD))
def test_is_strict_matches_walk_oracle(sp, t):
    for start in {t, least_walk_start(sp)} - {None}:
        terms, arcs = _walk(sp, start)
        strict = walk_attempt(sp, start) and _distinct(terms) and _distinct(arcs)
        assert realize(sp, start).is_strict() == strict


@PROPERTY
@given(unsigned_patterns)
def test_unsigned_verdict_is_best_signing(p):
    # the least strict signing, else the least weak one, else forbidden,
    # with signings in lexicographic order (+ before -)
    best = (FORBIDDEN, None, None)
    for signs, start in weak_signings(p.skips):
        sp = SignedPattern(tuple(zip(signs, p.skips)))
        if _distinct(_walk(sp, start)[0]):
            best = (REALIZABLE, start, signs)
            break
        if best[0] == FORBIDDEN:
            best = (WEAKLY_REALIZABLE, start, signs)
    verdict = strict_realizability(p)
    signs = None if verdict.signed is None else verdict.signed.signs
    assert (verdict.status, verdict.witness_start, signs) == best


# Skips dividing 240 keep a period scan within 480 terms and still span
# 2-adic classes 0-4: two signings can first differ only at a skip whose
# class exceeds every earlier one.
signing_skips = st.lists(
    st.sampled_from((1, 2, 3, 4, 5, 6, 8, 10, 12, 15, 16)), min_size=1, max_size=7
)


@PROPERTY
@given(signing_skips)
@example([1, 2, 4, 8, 16])
@example([3, 2, 1, 4])
def test_signings_match_brute_force_and_number_at_most_two(skips):
    found = [(sp.signs, start) for sp, start in _signings(Pattern(tuple(skips)))]
    assert found == weak_signings(skips)
    assert len(found) <= 2


@PROPERTY
@given(signed_patterns)
def test_signed_verdict_matches_walk_scan(sp):
    # the least start, else the first (i, j) whose one-span check fails
    weak = weakly_realizable(sp)
    assert weak.witness_start == least_walk_start(sp)
    if weak.status == FORBIDDEN:
        n = len(sp)
        first = next((i, j) for i in range(n) for j in range(i + 1, n) if not check_subpath(sp, i, j).ok)
        assert strict_realizability(sp).failure == weak.failure == check_subpath(sp, *first)


@PROPERTY
@given(signed_patterns)
def test_span_verdicts_match_two_step_scan(sp):
    # a span passes exactly when its two end steps can both leave from the
    # multiples their signs require, with the inner sum between them; the
    # O(n^2) scan reports every span, in order, as check_subpath does
    steps = sp.steps
    n = len(sp)
    reports = list(_subpath_reports(sp))
    assert [(r.i, r.j) for r in reports] == [(i, j) for i in range(n) for j in range(i + 1, n)]
    for report in reports:
        i, j = report.i, report.j
        inner = sum(sign * skip for sign, skip in steps[i + 1 : j])
        assert report == check_subpath(sp, i, j)
        assert report.divisibility_ok == (inner % math.gcd(steps[i][1], steps[j][1]) == 0)
        assert report.ok == span_walk_exists(steps[i], inner, steps[j])


# 40-digit skips sharing the factor BIG: only +/-BIG three times sits
# between 5 BIG and 10 BIG, and no signing of it is a multiple of 5 BIG
BIG = 10**39 + 3


@PROPERTY
@given(st.lists(st.integers(1, 12), min_size=1, max_size=9))
@example([5, 1, 10])
# i = 0 fails only at j = 4, after i = 1 has failed at j = 3
@example([2, 3, 1, 3, 2])
@example([5 * BIG, BIG, BIG, BIG, 10 * BIG])
def test_sign_free_failure_matches_signing_scan(skips):
    # the first span no signing of its inner skips makes divisible, by i
    # and then j, and that span is the unsigned pattern's forbidden report
    p = Pattern(tuple(skips))
    expected = sign_free_span_failure(skips)
    report = _sign_free_divisibility_failure(p)
    if expected is None:
        assert report is None
        return
    assert report == SubpathReport(*expected, False, False)
    verdict = strict_realizability(p)
    assert (verdict.status, verdict.failure) == (FORBIDDEN, report)


@PROPERTY
@given(
    st.lists(st.sampled_from((1, -1)), min_size=1, max_size=24),
    st.lists(st.integers(1, 30), min_size=1, max_size=4),
    st.integers(0, 600),
)
# two cycles of -1 -1 -1 +1 +1 +1 +1: the deepest dip is in the first
@example([1, 1, 1, 1, -1, -1, -1], [1], 13)
def test_verify_discrepancy_matches_scan(values, skips, extra):
    horizon = max(skips) + extra
    expected = discrepancy_scan(values, skips, horizon)
    assert verify_discrepancy(Coloring.from_values(values), skips, horizon) == expected


@PROPERTY
@given(zero_sum_odd_patterns())
@example(parse_pattern("[+2 +1 -3]"))
@example(parse_pattern("[+8 +1 -3 +1 -5 +1 -3]"))
@example(parse_pattern("[+3 -1 +2 +1 -5]"))
@example(parse_pattern("[+2 +1 -3 +4 -4]"))
def test_valid_odd_cycle_matches_walk_oracle(sp):
    # valid exactly when the least start's closed walk repeats no term
    # other than its return and no arc
    start = least_walk_start(sp)
    verdict = valid_odd_cycle(sp)
    assert verdict.witness_start == start
    if start is None:
        assert not verdict.valid
    else:
        terms, arcs = _walk(sp, start)
        assert terms[-1] == terms[0]
        assert verdict.valid == (_distinct(terms[:-1]) and _distinct(arcs))


@PROPERTY
@given(skip_sets)
def test_solve_block_matches_oracles(skips):
    # a coloring has discrepancy 1 over one period; a cycle closes from its
    # start with no repeated term; for |S| <= 4 the classifier agrees
    g = build_graph(skips)
    found = solve_block(g)
    if isinstance(found, Coloring):
        assert found.period == g.period
        assert discrepancy_scan(found.values.tolist(), skips, g.period) <= 1
    else:
        assert isinstance(found, OddCycleCertificate)
        sp, start = found.signed_pattern, found.start
        assert len(sp) % 2 == 1 and set(sp.skips) <= set(skips)
        assert walk_attempt(sp, start)
        terms, _ = _walk(sp, start)
        assert terms[-1] == terms[0] and _distinct(terms[:-1])
    if len(skips) <= 4:
        assert classify(skips).forces == isinstance(found, OddCycleCertificate)


# 3- and 4-sets of skips up to 24, half of them built around a sum
# p + q = r so that forcing verdicts are common
random_sets = st.lists(st.integers(1, 24), min_size=3, max_size=4, unique=True)
sum_sets = (
    st.tuples(st.integers(1, 11), st.integers(1, 12), st.lists(st.integers(1, 24), max_size=1))
    .map(lambda t: [t[0], t[1], t[0] + t[1], *t[2]])
    .filter(lambda s: len(set(s)) == len(s))
)


@PROPERTY
@given(st.one_of(random_sets, sum_sets), st.integers(1, 6))
@example([1, 2, 3], 2)
@example([1, 2, 7, 10], 3)
@example([1, 3, 5, 8], 2)
@example([1, 3, 5, 8], 5)
@example([1, 2, 4, 6], 6)
def test_classify_certificate_at_any_scale(skips, d):
    # a forcing verdict's cycle runs in the scaled input's own graph: an
    # odd zero-sum walk over its skips that closes from its least start
    # with no repeated term
    values = [d * v for v in skips]
    result = classify(values)
    if not result.forces:
        assert result.predicted_cycle is None and result.predicted_start is None
        return
    cycle, start = result.predicted_cycle, result.predicted_start
    assert set(cycle.skips) <= set(values) and set(result.labeling.values()) <= set(values)
    assert len(cycle) % 2 == 1 and cycle.signed_sum == 0
    assert walk_attempt(cycle, start)
    terms, _ = _walk(cycle, start)
    assert terms[-1] == terms[0] and _distinct(terms[:-1])
    assume(2 * math.lcm(*cycle.skips) <= 2**16)
    assert start == least_walk_start(cycle)


@PROPERTY
@given(
    st.lists(
        st.tuples(st.integers(-100, 100), st.integers(1, 12)), min_size=1, max_size=5
    )
)
def test_crt_merge_fold_matches_brute_force(pairs):
    # fold from the trivial congruence, as the signing walks do
    solved = reduce(lambda acc, c: None if acc is None else crt_merge(acc, c), pairs, (0, 1))
    expected = brute_congruence_solution(pairs)
    if expected is None:
        assert solved is None
    else:
        assert solved == (expected, math.lcm(*(m for _, m in pairs)))
