import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hapdisc.pattern import (
    Pattern,
    PatternSyntaxError,
    SignedPattern,
    SignInferenceError,
    format_pattern,
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
    sp = realize(Pattern((2, 1, 3)), 0).pattern
    assert sp.steps == ((1, 2), (1, 1), (-1, 3))


def test_infer_signs_seven_cycle():
    sp = realize(Pattern((8, 1, 3, 1, 5, 1, 3)), 48).pattern
    assert sp.signs == (1, 1, -1, 1, -1, 1, -1)


def test_infer_signs_rejects_non_multiple():
    with pytest.raises(SignInferenceError) as err:
        realize(Pattern((5,)), 7)
    assert err.value.index == 0


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Pattern(()), "pattern must contain at least one skip"),
        (lambda: Pattern((0,)), "skips must be positive, got (0,)"),
        (lambda: Pattern((2, -1)), "skips must be positive, got (2, -1)"),
        (lambda: SignedPattern(()), "pattern must contain at least one step"),
        (lambda: SignedPattern(((2, 1),)), "sign must be +1 or -1, got 2"),
        (lambda: SignedPattern(((0, 1),)), "sign must be +1 or -1, got 0"),
        (lambda: SignedPattern(((1, 0),)), "skips must be positive, got 0"),
        (lambda: SignedPattern(((1, 2), (-1, -3))), "skips must be positive, got -3"),
        (lambda: realize(Pattern((1,)), -1), "start term must be nonnegative, got -1"),
    ],
    ids=[
        "empty",
        "zero-skip",
        "negative-skip",
        "signed-empty",
        "signed-bad-sign",
        "signed-zero-sign",
        "signed-zero-skip",
        "signed-negative-skip",
        "negative-start",
    ],
)
def test_construction_errors(make, message):
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message


def test_realize_path():
    walk = realize(parse_pattern("[-1 +3 -1]"), 1)
    assert walk.terms == (1, 0, 3, 2)
    assert not walk.parity_violations
    assert len(set(walk.terms)) == len(walk.terms)


def test_realize_closed_walk():
    walk = realize(parse_pattern("[+2 +1 -3]"), 0)
    assert walk.terms == (0, 2, 3, 0)
    assert not walk.parity_violations


def test_realize_flags_repeated_term_of_retraced_arc():
    walk = realize(parse_pattern("[+1 -1]"), 0)
    assert walk.terms == (0, 1, 0)
    assert not walk.parity_violations


def test_realize_flags_parity_violation():
    # a violating step still goes the way its sign says
    walk = realize(parse_pattern("[+2 +2]"), 0)
    assert walk.terms == (0, 2, 4)
    assert walk.parity_violations == (1,)
    # -1 is an odd multiple of 1, but no step may leave a negative term;
    # a walk only gets there through an earlier violation
    walk = realize(parse_pattern("[-1 -1 -1]"), 1)
    assert walk.terms == (1, 0, -1, -2)
    assert walk.parity_violations == (1, 2)


def test_realize_rejects_negative_start():
    with pytest.raises(ValueError):
        realize(parse_pattern("[+1]"), -1)


@st.composite
def forward_walks(draw):
    # each skip divides the term it leaves, so every step takes a sign
    start = t = draw(st.integers(0, 39))
    skips = []
    for _ in range(draw(st.integers(1, 7))):
        s = draw(st.sampled_from([s for s in range(1, 9) if t % s == 0]))
        skips.append(s)
        t += s if (t // s) % 2 == 0 else -s
    return Pattern(tuple(skips)), start


# unsigned patterns with no regard to their start, most of which stop at a
# term that is no multiple of its next skip
free_walks = st.tuples(
    st.lists(st.integers(1, 8), min_size=1, max_size=7).map(lambda skips: Pattern(tuple(skips))),
    st.integers(0, 39),
)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(st.one_of(forward_walks(), free_walks))
def test_infer_then_realize_never_violates_parity(case):
    # an unsigned walk takes its signs or stops at the first non-multiple,
    # and walking the signs it took as a signed pattern gives it back
    p, start = case
    t = start
    for k, skip in enumerate(p.skips):
        if t % skip:
            with pytest.raises(SignInferenceError) as err:
                realize(p, start)
            assert err.value.index == k
            return
        t += skip if (t // skip) % 2 == 0 else -skip
    walk = realize(p, start)
    sp = walk.pattern
    assert sp.unsigned() == p and walk.terms[-1] == t
    again = realize(sp, start)
    assert again == walk
    assert not again.parity_violations
    assert walk_attempt(sp, start)


def test_repeat_flags_are_start_independent():
    # shifting the start by the congruence period keeps the walk valid and
    # its terms' offsets from the start, so every repeat
    rng = random.Random(11)
    from hapdisc.realizability import weakly_realizable

    checked = 0
    for _ in range(1500):
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
        assert [t - w1.start for t in w1.terms] == [t - w2.start for t in w2.terms]
        if checked == 100:
            break
    else:
        pytest.fail(f"{checked} of 100 realizable patterns before the draws ran out")


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
