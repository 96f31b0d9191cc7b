import math
import random

import pytest

from hapdisc.pattern import (
    Pattern,
    PatternSyntaxError,
    SignedPattern,
    SignInferenceError,
    format_pattern,
    infer_signs,
    parse_pattern,
    realize,
)

from oracles import walk_attempt


def test_parse_unsigned():
    p = parse_pattern("[2 1 3]")
    assert isinstance(p, Pattern)
    assert p.skips == (2, 1, 3)


def test_parse_signed_without_spaces():
    sp = parse_pattern("[+18+9-3+16+20+3-9-18+3-19-20]")
    assert isinstance(sp, SignedPattern)
    assert len(sp) == 11
    assert sp.skips == (18, 9, 3, 16, 20, 3, 9, 18, 3, 19, 20)
    assert sp.signs == (1, 1, -1, 1, 1, 1, -1, -1, 1, -1, -1)


def test_parse_mixed_signs_rejected():
    with pytest.raises(PatternSyntaxError):
        parse_pattern("[+2 1]")


@pytest.mark.parametrize("bad", ["", "[]", "[2 1 3", "2 1 3]", "[2 x 3]", "[0]", "[+2 -0]"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(PatternSyntaxError):
        parse_pattern(bad)


def test_parse_accepts_unicode_minus():
    sp = parse_pattern("[−3 +4]")
    assert sp.steps == ((-1, 3), (1, 4))


@pytest.mark.parametrize(
    "text", ["[2 1 3]", "[+8 +1 -3]", "[-1 +3 -1]", "[+18 +9 -3 +16 +20 +3 -9 -18 +3 -19 -20]"]
)
def test_format_parse_round_trip(text):
    assert format_pattern(parse_pattern(text)) == text


def test_format_canonicalizes():
    assert format_pattern(parse_pattern("[ +8+1  -3 ]")) == "[+8 +1 -3]"


def test_infer_signs_three_cycle():
    sp = infer_signs(Pattern((2, 1, 3)), 0)
    assert sp.steps == ((1, 2), (1, 1), (-1, 3))


def test_infer_signs_seven_cycle():
    sp = infer_signs(Pattern((8, 1, 3, 1, 5, 1, 3)), 48)
    assert sp.signs == (1, 1, -1, 1, -1, 1, -1)


def test_infer_signs_rejects_non_multiple():
    with pytest.raises(SignInferenceError) as err:
        infer_signs(Pattern((5,)), 7)
    assert err.value.index == 0


def test_realize_path():
    walk = realize(parse_pattern("[-1 +3 -1]"), 1)
    assert walk.terms == (1, 0, 3, 2)
    assert not walk.parity_violations
    assert not walk.repeated_terms()
    assert not walk.is_closed


def test_realize_closed_walk():
    walk = realize(parse_pattern("[+2 +1 -3]"), 0)
    assert walk.terms == (0, 2, 3, 0)
    assert walk.is_closed
    assert walk.repeated_terms() == (0,)
    assert walk.repeated_terms(as_cycle=True) == ()


def test_realize_flags_repeated_term_of_retraced_arc():
    walk = realize(parse_pattern("[+1 -1]"), 0)
    assert walk.repeated_terms() == (0,)
    assert not walk.parity_violations


def test_realize_flags_parity_violation():
    walk = realize(parse_pattern("[+2 +2]"), 0)
    assert walk.parity_violations == (1,)


def test_realize_rejects_negative_start():
    with pytest.raises(ValueError):
        realize(parse_pattern("[+1]"), -1)


def test_infer_then_realize_never_violates_parity():
    # walks generated forward in the graph always re-infer cleanly
    rng = random.Random(4)
    for _ in range(500):
        start = rng.randrange(0, 40)
        t = start
        skips = []
        for _ in range(rng.randint(1, 7)):
            s = rng.choice([s for s in range(1, 9) if t % s == 0])
            skips.append(s)
            t += s if (t // s) % 2 == 0 else -s
        sp = infer_signs(Pattern(tuple(skips)), start)
        walk = realize(sp, start)
        assert not walk.parity_violations
        assert walk_attempt(sp, start)


def test_repeat_flags_are_start_independent():
    # shifting the start by the congruence period preserves all flags
    rng = random.Random(11)
    from hapdisc.realizability import weakly_realizable

    checked = 0
    while checked < 100:
        length = rng.randint(2, 6)
        steps = tuple(
            (rng.choice((1, -1)), rng.randint(1, 9)) for _ in range(length)
        )
        sp = SignedPattern(steps)
        verdict = weakly_realizable(sp)
        if verdict.status == "forbidden":
            continue
        checked += 1
        shift = math.lcm(*(2 * a for a in sp.skips))
        w1 = realize(sp, verdict.witness_start)
        w2 = realize(sp, verdict.witness_start + shift)
        assert not w2.parity_violations
        assert len(w1.repeated_terms()) == len(w2.repeated_terms())
        assert len(w1.repeated_terms(as_cycle=True)) == len(w2.repeated_terms(as_cycle=True))


def test_bold_path_start_is_derivable():
    # the only start in [0, 24) realizing [-3 +4 +2 +3] over {2,3,4}
    sp = parse_pattern("[-3 +4 +2 +3]")
    starts = [t for t in range(24) if walk_attempt(sp, t)]
    assert starts == [3]
    assert realize(sp, 3).terms == (3, 0, 4, 6, 9)


def test_scaled_and_reversed():
    sp = parse_pattern("[+2 +1 -3]")
    assert SignedPattern(tuple((sign, 2 * skip) for sign, skip in sp.steps)).skips == (4, 2, 6)
    assert sp.signed_sum == 0
    assert sp.unsigned() == Pattern((2, 1, 3))
