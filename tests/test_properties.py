"""Property tests of the realizability checks, the block solver and the
discrepancy verifier against the brute-force oracles.

Pattern skips stay at most 8, so one period of any block graph drawn for
a pattern is at most 2 * lcm(1..8) = 1680 terms and every period scan
stays cheap; the block solver gets skip sets of periods up to 2^14 (2^18
for the walk order of its cycles), and the classifier's cycles are
scanned over periods up to 2^16.  The oracles below check arcs as well
as terms, as the paper's definition reads; the library checks terms
alone.
"""

from __future__ import annotations

import itertools
import math
from functools import reduce

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hapdisc import skipgraph
from hapdisc.classify import classify
from hapdisc.pattern import Pattern, SignedPattern, parse_pattern, realize
from hapdisc.realizability import (
    FORBIDDEN,
    REALIZABLE,
    WEAKLY_REALIZABLE,
    SubpathReport,
    _sign_free_divisibility_failure,
    _signings,
    _step_row,
    _subpath_reports,
    check_subpath,
    strict_realizability,
    valid_odd_cycle,
    weakly_realizable,
)
from hapdisc.reduction import ESSInstance, ess_solve
from hapdisc.search import longest_odd_cycle
from hapdisc.skipgraph import (
    Coloring,
    OddCycleCertificate,
    build_graph,
    solve_block,
    verify_discrepancy,
)
from oracles import (
    brute_congruence_solution,
    crt_merge,
    discrepancy_scan,
    ess_first_witness,
    least_walk_start,
    paper_conditions,
    sign_free_span_failure,
    span_walk_exists,
    step_congruence,
    two_adic_valuation,
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


@st.composite
def closed_signed_patterns(draw) -> SignedPattern:
    """An even number of random steps closed by one step back to where
    they began: zero-sum and odd, and mostly not weakly realizable."""
    steps = draw(st.integers(1, 3).flatmap(lambda k: st.lists(steps_st, min_size=2 * k, max_size=2 * k)))
    total = sum(sign * skip for sign, skip in steps)
    assume(1 <= abs(total) <= MAX_SKIP)
    return SignedPattern((*steps, (-1 if total > 0 else 1, abs(total))))


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
@given(signing_skips, st.lists(st.sampled_from((1, -1)), min_size=7, max_size=7))
@example([1, 2, 4, 8, 16], [-1, -1, -1, -1, -1, 1, 1])  # the second signing, at 31
@example([3, 2, 1, 4], [1, 1, 1, 1, 1, 1, 1])  # no signing walks
def test_signings_match_brute_force_and_number_at_most_two(skips, signs):
    found = [(sp.signs, start) for sp, start in _signings(Pattern(tuple(skips)))]
    assert found == weak_signings(skips)
    assert len(found) <= 2
    # a signed pattern offers only its own signs: itself at its least start,
    # or nothing
    sp = SignedPattern(tuple(zip(signs, skips)))
    start = least_walk_start(sp)
    assert list(_signings(sp)) == ([] if start is None else [(sp, start)])


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


def paper_parity(first: tuple[int, int], inner: int, last: tuple[int, int]) -> bool:
    """The paper's parity condition on a span whose divisibility holds: the
    inner sum is an even multiple of the gcd exactly when the end skip of
    the lower 2-adic class steps the required way."""
    (sign_i, a_i), (sign_j, a_j) = first, last
    even = inner // math.gcd(a_i, a_j) % 2 == 0
    v_i, v_j = two_adic_valuation(a_i), two_adic_valuation(a_j)
    if v_i < v_j:
        required = sign_i == -1  # the lower class on the left steps down
    elif v_i > v_j:
        required = sign_j == 1  # the lower class on the right steps up
    else:
        required = sign_i == -sign_j  # equal classes step opposite ways
    return even == required


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
        if report.divisibility_ok:
            assert report.parity_ok == paper_parity(steps[i], inner, steps[j])


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


@pytest.mark.parametrize(
    "skips,classes",
    [
        ((3 * BIG, BIG, 5 * BIG, 10 * BIG), "left lower"),
        ((12 * BIG, 6 * BIG, 6 * BIG), "right lower"),
        ((4 * BIG, 2 * BIG, 2 * BIG, 12 * BIG), "equal"),
    ],
)
def test_huge_span_verdicts_match_the_paper(skips, classes):
    # every signing of a span of 40-digit skips: the paper's 2-adic rule
    # where divisibility holds, and the two end steps' start congruences
    # merged by the oracle
    v_first, v_last = two_adic_valuation(skips[0]), two_adic_valuation(skips[-1])
    assert classes == ("left lower" if v_first < v_last else "right lower" if v_first > v_last else "equal")
    g = math.gcd(skips[0], skips[-1])
    verdicts = set()
    for signs in itertools.product((1, -1), repeat=len(skips)):
        sp = SignedPattern(tuple(zip(signs, skips)))
        first, last = sp.steps[0], sp.steps[-1]
        inner = sum(sign * skip for sign, skip in sp.steps[1:-1])
        report = check_subpath(sp, 0, len(skips) - 1)
        assert report.divisibility_ok == (inner % g == 0)
        if report.divisibility_ok:
            assert report.parity_ok == paper_parity(first, inner, last)
        merged = crt_merge(step_congruence(*first, 0), step_congruence(*last, first[0] * first[1] + inner))
        assert report.ok == (merged is not None)
        verdicts.add(report.ok)
    assert verdicts == {True, False}


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
@given(st.one_of(zero_sum_odd_patterns(), closed_signed_patterns()))
@example(parse_pattern("[+2 +1 -3]"))
@example(parse_pattern("[+8 +1 -3 +1 -5 +1 -3]"))
@example(parse_pattern("[+3 -1 +2 +1 -5]"))
@example(parse_pattern("[+2 +1 -3 +4 -4]"))
@example(parse_pattern("[+1 +1 -2]"))
def test_valid_odd_cycle_matches_walk_oracle(sp):
    # valid exactly when the least start's closed walk repeats no term
    # other than its return and no arc; the reason is not-weakly-realizable
    # when no start walks, else repeated-term when a term repeats
    start = least_walk_start(sp)
    verdict = valid_odd_cycle(sp)
    assert (verdict.signed_sum, verdict.witness_start) == (0, start)
    if start is None:
        assert (verdict.valid, verdict.reason) == (False, "not-weakly-realizable")
    else:
        terms, arcs = _walk(sp, start)
        assert terms[-1] == terms[0]
        assert verdict.valid == (_distinct(terms[:-1]) and _distinct(arcs))
        assert verdict.reason == (None if _distinct(terms[:-1]) else "repeated-term")


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


# 1-6 skips up to 40 that all divide one L <= 2^12, so the block has at
# most 2^13 vertices; each L has at least three such divisors
SMALL_DIVISORS = [
    ds for L in range(1, 2**12 + 1) if len(ds := [d for d in range(1, 41) if L % d == 0]) >= 3
]
union_find_sets = st.sampled_from(SMALL_DIVISORS).flatmap(
    lambda ds: st.lists(st.sampled_from(ds), min_size=1, max_size=6, unique=True)
)


def _solved_with_cut(g, cut: int):
    saved = skipgraph._VECTOR_MIN_PERIOD
    skipgraph._VECTOR_MIN_PERIOD = cut
    try:
        return solve_block(g)
    finally:
        skipgraph._VECTOR_MIN_PERIOD = saved


@settings(PROPERTY, max_examples=300)
@given(union_find_sets)
@example([1, 5, 7])  # skip 1's pairs, bipartite
@example([1, 2, 3])  # skip 1's pairs, odd
@example([4, 6])  # 16 of 24 vertices isolated, and the pair (16, 20) on no 6-edge
@example([2, 3, 5])  # s0 = 2 with isolated pairs, odd in a later component
@example([3])  # one skip: every pair is a whole component
def test_union_find_matches_whole_block_bfs(skips):
    # the union-find over the smallest skip's contracted pairs gives the
    # BFS's coloring, or the BFS's certificate through its restart
    g = build_graph(skips)
    assert _solved_with_cut(g, 1) == _solved_with_cut(g, g.period + 1)


# 3- and 4-sets of skips up to 24, half of them built around a sum
# p + q = r so that forcing verdicts are common
random_sets = st.lists(st.integers(1, 24), min_size=3, max_size=4, unique=True)
sum_sets = (
    st.tuples(st.integers(1, 11), st.integers(1, 12), st.lists(st.integers(1, 24), max_size=1))
    .map(lambda t: [t[0], t[1], t[0] + t[1], *t[2]])
    .filter(lambda s: len(set(s)) == len(s))
)


def _first_in_walk_order(sp: SignedPattern, start: int) -> bool:
    # the cycle starts at its least term, and its steps, compared as
    # (signs with + first, then skips), come no later than the reversed
    # orientation's from the same start
    def order(steps):
        return "".join("+" if sign > 0 else "-" for sign, _ in steps), [skip for _, skip in steps]

    reverse = [(-sign, skip) for sign, skip in reversed(sp.steps)]
    return start == min(realize(sp, start).terms) and order(sp.steps) <= order(reverse)


@settings(PROPERTY, max_examples=300)
@given(st.one_of(random_sets, sum_sets).filter(lambda s: 2 * math.lcm(*s) <= 2**18))
@example((1, 2, 3))  # a triangle, both orientations from 0
@example((1, 3, 5, 8))  # the 7-cycle row of size4-bullet-4
@example((13, 24, 27, 51))  # 95 472 vertices: the union-find at the default cut too
def test_cycles_follow_the_walk_order(skips):
    # the block solver's certificates, from the BFS and from the
    # union-find, and the search's odd cycles pick one walk of a cycle
    # by the same order
    g = build_graph(skips)
    for found in (solve_block(g), _solved_with_cut(g, 1)):
        if isinstance(found, OddCycleCertificate):
            assert _first_in_walk_order(found.signed_pattern, found.start)
    result = longest_odd_cycle(skips, 7)
    if result is not None:
        assert _first_in_walk_order(result.signed, result.start)


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


# 4-sets built to meet one rule's zero-sum equation, with one label solved
# for and w = 2k + 1 an odd multiplier that makes the rule's divisibility
# likely: c = a + b; a = 2b + y - x with a = wb; a = |2x - y - z| with
# y = wx; a = 2x + y - 3z with z = 1 and y = 2 + wx.  Labels run up to
# 10^6 and are often small.


def _shaped(rule, p, q, r, k):
    w = 2 * k + 1
    if rule == 0:
        return [p, q, p + q, r]
    if rule == 1:
        b, x = 2 * p, 2 * q + 1
        return [w * b, b, x, x + (w - 2) * b]
    if rule == 2:
        x, z = 2 * p + 1, 2 * q + 1
        return [abs(2 * x - w * x - z), x, w * x, z]
    x = 2 * p + 1
    return [2 * x + 2 + w * x - 3, x, 2 + w * x, 1]


labels = st.one_of(st.integers(1, 40), st.integers(1, 10**6))
shaped_sets = st.builds(_shaped, st.integers(0, 3), labels, labels, labels, st.integers(0, 7)).filter(
    lambda s: min(s) > 0 and len(set(s)) == 4
)


@settings(PROPERTY, max_examples=300)
@given(shaped_sets, st.integers(1, 12))
@example([1, 2, 3, 4], 1)
@example([1, 2, 7, 10], 2)
@example([1, 3, 9, 4], 3)
@example([1, 3, 5, 8], 12)
def test_classify_rules_match_paper_conditions(skips, d):
    # each rule fires exactly when the paper's literal condition holds,
    # and the first one's labeling is the condition's, at any scale
    values = [d * v for v in skips]
    g = math.gcd(*values)
    bullets, labeling = paper_conditions(tuple(sorted(v // g for v in values)))
    result = classify(values)
    assert result.satisfied_bullets == bullets
    assert result.forces == bool(bullets)
    if result.forces:
        assert {k: v // g for k, v in result.labeling.items()} == labeling


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


@PROPERTY
@given(
    st.lists(
        st.tuples(st.sampled_from((1, -1)), st.integers(1, 60), st.integers(-500, 500)),
        max_size=8,
    ),
    st.integers(-500, 500),
    st.integers(1, 60),
)
@example(folded=[(1, 6, 0)], base=0, a=3)  # 2a divides the modulus 12
@example(folded=[(1, 6, 0)], base=0, a=12)  # g = 12 divides a
def test_search_residue_gate_admits_exactly_the_merging_signs(folded, base, a):
    # the start-term congruence of a search node, folded from step
    # congruences; a step that does not merge is left out, as the DFS would
    acc = (0, 1)
    for sign, skip, offset in folded:
        acc = crt_merge(acc, step_congruence(sign, skip, offset)) or acc
    residue, modulus = acc
    g, both, step, inv = _step_row(modulus, a)
    # one step from the term ``base`` as the search and the signing walk
    # take it: the residue gate, then the merge the row makes plain
    offset = -base - residue
    admitted = {}
    for sign, diff in ((1, offset), (-1, offset + a)):
        if diff % g == 0:
            admitted[sign] = (residue + modulus * (diff // g * inv % step), modulus * step)
    merging = {}
    for sign in (1, -1):
        merged = crt_merge(acc, step_congruence(sign, a, base))
        if merged is not None:
            merging[sign] = merged
    assert admitted == merging
    assert len(merging) in ((0, 2) if both else (0, 1))
    if step == 1:
        assert all(merged == acc for merged in merging.values())


# ESS instances of 1-11 distinct elements, dense (at most 3n, where
# witnesses abound) or sparse (up to 10^6, where they are rare)
ess_instances = st.integers(1, 11).flatmap(
    lambda n: st.one_of(
        st.sets(st.integers(1, 3 * n), min_size=n, max_size=n),
        st.sets(st.integers(1, 10**6), min_size=n, max_size=n),
    )
)


@PROPERTY
@given(ess_instances)
@example({1, 2, 3})
@example({1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024})  # no witness at any level
@example({1, 2, 4, 7, 10})  # first witness at |Y| = 2: 1 + 4 + 7 == 2 + 10
@example({1, 2, 4, 10, 15, 20, 23})  # X = (0, 2, 5) sums to 2 + 23 and to 10 + 15
def test_ess_solve_matches_nested_scan(values):
    inst = ESSInstance.of(values)
    witness = ess_solve(inst)
    found = None if witness is None else (witness.x_indices, witness.y_indices)
    assert found == ess_first_witness(inst.elements)
