import hashlib
import random
from itertools import product

import pytest

from hapdisc.pattern import Pattern, SignedPattern, parse_pattern, realize
from hapdisc.realizability import (
    FORBIDDEN,
    REALIZABLE,
    WEAKLY_REALIZABLE,
    check_subpath,
    strict_realizability,
    valid_odd_cycle,
    weakly_realizable,
)

from oracles import least_walk_start, walk_exists


def sp(text: str) -> SignedPattern:
    p = parse_pattern(text)
    assert isinstance(p, SignedPattern)
    return p


def random_signed(rng, max_skip=9, max_len=7, min_len=1) -> SignedPattern:
    length = rng.randint(min_len, max_len)
    return SignedPattern(
        tuple((rng.choice((1, -1)), rng.randint(1, max_skip)) for _ in range(length))
    )


# --- subpath conditions ---


def test_check_subpath_full_span_parity_failure():
    report = check_subpath(sp("[+4 +3 -1 +2]"), 0, 3)
    assert report.intermediate_sum == 2
    assert report.gcd == 2
    assert report.divisibility_ok
    assert not report.parity_ok
    assert report.reason == "parity"


def test_check_subpath_trivial_cases():
    report = check_subpath(sp("[+2 +1 -3]"), 0, 2)
    assert report.intermediate_sum == 1
    assert report.gcd == 1
    assert report.ok
    # adjacent steps have an empty intermediate path
    adj = check_subpath(sp("[+4 +3 -1 +2]"), 1, 2)
    assert adj.intermediate_sum == 0
    assert adj.divisibility_ok


def test_check_subpath_bounds():
    with pytest.raises(IndexError):
        check_subpath(sp("[+2 +1 -3]"), 1, 1)
    with pytest.raises(IndexError):
        check_subpath(sp("[+2 +1 -3]"), 0, 3)


def test_basic_parity_test_cases():
    cases = [
        ("[+4 +3 -1 +2]", True),
        # equal odd classes with equal signs break the adjacent rule
        ("[+3 +5]", False),
        # equal classes with opposite signs pass, repetition notwithstanding
        ("[+1 -1]", True),
    ]
    for text, ok in cases:
        p = sp(text)
        assert all(check_subpath(p, k, k + 1).parity_ok for k in range(len(p) - 1)) == ok


# --- weak realizability ---


def test_weakly_realizable_counterexample_pattern():
    verdict = weakly_realizable(sp("[+4 +3 -1 +2]"))
    assert verdict.status == FORBIDDEN
    assert (verdict.failure.i, verdict.failure.j) == (0, 3)
    assert verdict.failure.reason == "parity"


def test_all_signings_of_5_1_10_are_forbidden():
    for signs in product((1, -1), repeat=3):
        pattern = SignedPattern(tuple(zip(signs, (5, 1, 10))))
        assert weakly_realizable(pattern).status == FORBIDDEN


def test_four_pairs_pattern_weakly_realizable_at_5():
    verdict = weakly_realizable(sp("[-1 -4 +6 +3 -1 +4 +6 +3 -1 -4]"))
    assert verdict.status == WEAKLY_REALIZABLE
    assert verdict.witness_start == 5
    assert not realize(verdict.signed, 5).parity_violations


# --- strict realizability ---


def test_unsigned_2134_weak_but_not_realizable():
    verdict = strict_realizability(Pattern((2, 1, 3, 4)))
    assert verdict.status == WEAKLY_REALIZABLE


def test_path_131_realizable_at_1():
    verdict = strict_realizability(sp("[-1 +3 -1]"))
    assert verdict.status == REALIZABLE
    assert verdict.witness_start == 1


def test_plus_minus_one_weak_only():
    verdict = strict_realizability(sp("[+1 -1]"))
    assert verdict.status == WEAKLY_REALIZABLE
    assert verdict.witness_start == 0


def test_unsigned_5_1_10_forbidden_with_no_signing_window():
    verdict = strict_realizability(Pattern((5, 1, 10)))
    assert verdict.status == FORBIDDEN
    assert (verdict.failure.i, verdict.failure.j) == (0, 2)
    assert verdict.failure.reason == "no-signing"


# --- cycles ---


def test_triangle_cycle_valid_at_0():
    verdict = valid_odd_cycle(sp("[+2 +1 -3]"))
    assert verdict.valid
    assert verdict.witness_start == 0


def test_eleven_cycle_valid_at_360():
    verdict = valid_odd_cycle(sp("[+18 +9 -3 +16 +20 +3 -9 -18 +3 -19 -20]"))
    assert verdict.valid
    assert verdict.signed_sum == 0
    assert verdict.witness_start == 360


def test_zero_sum_with_repeated_term_is_invalid():
    verdict = valid_odd_cycle(sp("[+2 +1 -3 +4 -4]"))
    assert not verdict.valid
    assert verdict.signed_sum == 0
    assert verdict.reason == "repeated-term"


def test_zero_sum_cycle_that_walks_nowhere():
    # +1 leaves an even term and lands on an odd one, where +1 cannot leave
    verdict = valid_odd_cycle(sp("[+1 +1 -2]"))
    assert (verdict.valid, verdict.signed_sum, verdict.witness_start) == (False, 0, None)
    assert verdict.reason == "not-weakly-realizable"


def test_even_length_rejected():
    assert valid_odd_cycle(sp("[+1 -1]")).reason == "even-length"
    assert valid_odd_cycle(sp("[+1 -1 +1]")).reason == "nonzero-sum"


def test_cycle_witness_reproduces_cycle():
    verdict = valid_odd_cycle(sp("[+8 +1 -3 +1 -5 +1 -3]"))
    assert verdict.valid and verdict.witness_start == 48
    walk = realize(sp("[+8 +1 -3 +1 -5 +1 -3]"), verdict.witness_start)
    assert not walk.parity_violations and walk.terms[-1] == walk.terms[0]


# --- the two spans of a cycle ---


def test_both_paths_agree_examples():
    # on a zero-sum pattern read as a cycle, steps i and j are also joined
    # by the wrap-around span, which is the span from j to i + n of the
    # pattern written out twice; both spans get the same verdict
    for cycle in (sp("[+18 +9 -3 +16 +20 +3 -9 -18 +3 -19 -20]"), sp("[+2 +1 -3]")):
        n = len(cycle)
        doubled = SignedPattern(cycle.steps * 2)
        for i in range(n):
            for j in range(i + 1, n):
                assert check_subpath(cycle, i, j).reason == check_subpath(doubled, j, i + n).reason


def test_both_paths_random_zero_sum_sweep():
    rng = random.Random(7)
    built = 0
    while built < 300:
        length = rng.randint(2, 8)
        steps = [(rng.choice((1, -1)), rng.randint(1, 12)) for _ in range(length - 1)]
        residual = -sum(s * a for s, a in steps)
        if residual == 0 or abs(residual) > 12:
            continue
        steps.append((1 if residual > 0 else -1, abs(residual)))
        pattern = SignedPattern(tuple(steps))
        doubled = SignedPattern(pattern.steps * 2)
        built += 1
        for i in range(length):
            for j in range(i + 1, length):
                inner = check_subpath(pattern, i, j)
                assert inner.reason == check_subpath(doubled, j, i + length).reason


# --- invariants against the walk oracle ---


def test_oracle_equivalence_small_exhaustive():
    for length in range(1, 4):
        for skips in product(range(1, 7), repeat=length):
            for signs in product((1, -1), repeat=length):
                pattern = SignedPattern(tuple(zip(signs, skips)))
                verdict = weakly_realizable(pattern)
                start = least_walk_start(pattern)
                assert (verdict.status != FORBIDDEN) == (start is not None)
                if start is not None:
                    assert verdict.witness_start == start


def test_oracle_equivalence_random_longer():
    rng = random.Random(31)
    for _ in range(1500):
        pattern = random_signed(rng, max_skip=12, max_len=8)
        verdict = weakly_realizable(pattern)
        assert (verdict.status != FORBIDDEN) == walk_exists(pattern)


def test_scaling_preserves_status():
    rng = random.Random(5150)
    for _ in range(200):
        pattern = random_signed(rng, max_skip=8, max_len=6)
        base = strict_realizability(pattern).status
        for d in (2, 3, 5):
            scaled = SignedPattern(tuple((sign, d * skip) for sign, skip in pattern.steps))
            assert strict_realizability(scaled).status == base


def test_scaling_preserves_unsigned_status():
    rng = random.Random(515)
    for _ in range(60):
        p = Pattern(tuple(rng.randint(1, 7) for _ in range(rng.randint(1, 5))))
        base = strict_realizability(p).status
        for d in (2, 3, 5):
            assert strict_realizability(Pattern(tuple(d * s for s in p.skips))).status == base


def test_divisibility_plus_adjacent_parity_gives_short_span_parity():
    # whenever both end-to-end divisibility holds on length-3 windows and
    # every adjacent pair passes, the length-3 windows pass parity too
    rng = random.Random(777)
    confirmed = 0
    for _ in range(8000):
        pattern = random_signed(rng, max_skip=10, max_len=7, min_len=3)
        if not all(check_subpath(pattern, k, k + 1).parity_ok for k in range(len(pattern) - 1)):
            continue
        windows = [
            check_subpath(pattern, i, i + 2) for i in range(len(pattern) - 2)
        ]
        if not all(w.divisibility_ok for w in windows):
            continue
        confirmed += 1
        assert all(w.parity_ok for w in windows)
        if confirmed == 250:
            break
    else:
        pytest.fail(f"{confirmed} of 250 patterns passed both checks before the draws ran out")


def test_weak_witness_is_least_nonnegative():
    rng = random.Random(8080)
    found = 0
    for _ in range(1000):
        pattern = random_signed(rng, max_skip=8, max_len=6)
        verdict = weakly_realizable(pattern)
        if verdict.status == FORBIDDEN:
            continue
        found += 1
        assert verdict.witness_start == least_walk_start(pattern)
        if found == 150:
            break
    else:
        pytest.fail(f"{found} of 150 realizable patterns before the draws ran out")


# --- golden digest ---


def _verdict_line(verdict) -> str:
    failure = verdict.failure
    where = None if failure is None else (failure.i, failure.j, failure.reason)
    signed = None if verdict.signed is None else verdict.signed.steps
    return f"{verdict.status} {verdict.witness_start} {signed} {where}"


def _digest(patterns) -> tuple[str, int]:
    """The digest of each pattern's status, witness start, signed steps
    and failing span under strict_realizability, plus valid_odd_cycle's
    verdict on each odd-length zero-sum signed pattern among them and
    their signings, beside the number of valid cycles."""
    lines = []
    valid = 0
    for p in patterns:
        verdict = strict_realizability(p)
        lines.append(_verdict_line(verdict))
        for signed in dict.fromkeys((p, verdict.signed)):
            if isinstance(signed, SignedPattern) and len(signed) % 2 and signed.signed_sum == 0:
                cycle = valid_odd_cycle(signed)
                lines.append(f"cycle {signed.steps} {cycle.valid} {cycle.witness_start} {cycle.reason}")
                valid += cycle.valid
    return hashlib.sha256("\n".join(lines).encode()).hexdigest(), valid


def test_realizability_golden_digest():
    # every unsigned pattern of 1-5 steps over skips 1..6 and 2 000 seeded
    # signed ones, whose forbidden ones report the minimal window where the
    # signing walk died: no signing fits an unsigned one, and a signed
    # one's span fails divisibility or parity
    unsigned = [Pattern(skips) for n in range(1, 6) for skips in product(range(1, 7), repeat=n)]
    rng = random.Random(35)
    signed = [random_signed(rng, max_skip=6, max_len=7) for _ in range(2000)]
    assert _digest(unsigned) == ("f82ad108a672d4d92ea88efe43a0fe9d4079ed8937533c900296575ca76d1e91", 3)
    assert _digest(signed) == ("3a6791ff2016e18b89d9795d7901c06d39df5823b0cea9b7ee49b9aaea8b3e13", 6)
