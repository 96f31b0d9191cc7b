import hashlib
import math
import random
import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest

from hapdisc import realizability, search
from hapdisc.cli import main
from hapdisc.pattern import Pattern, SignedPattern, format_pattern, parse_pattern
from hapdisc.realizability import check_subpath, strict_realizability, valid_odd_cycle
from hapdisc.search import RuleVerdict, longest_odd_cycle, longest_path, rule_scan
from oracles import crt_merge, step_congruence
from test_acceptance import KNOWN_LONG_ROWS


FIRES = [
    ("[7 7]", "AA", (0, 1)),
    ("[3 5 3 5]", "ABAB", (0, 3)),
    ("[3 5 3]", "ABA-div", (0, 2)),
    ("[5 2 3 5]", "ABCA", (0, 3)),
    ("[2 3 1 2 1 3]", "AABBCC", (0, 5)),
    ("[3 1 5 1 3 1 5]", "BACABAC", (0, 6)),
    ("[2 1 3 1 4]", "ODD-BLOCKS", (0, 4)),
    ("[5 1 10]", "GCD-span", (0, 2)),
    # rules are scanned one after another, so a later AA beats an earlier ABAB
    ("[3 5 3 5 1 1]", "AA", (4, 5)),
]

SIGN_RULES = [
    ("[+3 +5]", "PLUS-PLUS", (0, 1)),
    ("[-12 -6]", "PLUS-PLUS", (0, 1)),
    ("[+4 -3]", "CLASS-SIGN", (0, 1)),
]


def _ids(rows):
    return [f"{text}-{rule_id}" for text, rule_id, _ in rows]


@pytest.mark.parametrize("text,rule_id,span", FIRES, ids=_ids(FIRES))
def test_rule_scan_fires(text, rule_id, span):
    assert rule_scan(parse_pattern(text)) == RuleVerdict(True, rule_id, span)


@pytest.mark.parametrize("text,rule_id,span", SIGN_RULES, ids=_ids(SIGN_RULES))
def test_rule_scan_sign_rules(text, rule_id, span):
    assert rule_scan(parse_pattern(text)) == RuleVerdict(True, rule_id, span)


@pytest.mark.parametrize(
    "text",
    [
        "[1 4 6 3 1 4 6 3 1 4]",  # four pairs are allowed
        "[3 6 3]",  # inner skip divisible by the outer
        "[2 1 3 4]",  # even-size odd block
        "[-3 +4 +2 +3]",
        "[1 5 1 7 1 5 1]",
    ],
)
def test_rule_scan_passes(text):
    assert not rule_scan(parse_pattern(text)).forbidden


def test_rule_scan_span_is_reported():
    verdict = rule_scan(parse_pattern("[9 4 7 7 2]"))
    assert verdict.rule_id == "AA"
    assert verdict.span == (2, 3)


def test_rule_scan_drops_each_gcd_after_its_last_span():
    # the signing walk dies at step 3, and no signing fits steps 0..3; the
    # +/-3**k after it reach 2**20 distinct residues mod gcd(3B, 5B) = B,
    # which no rule may enumerate
    big = 10**39 + 3
    p = Pattern((3 * big, big, 5 * big) + tuple(3**k for k in range(1, 21)))
    tracemalloc.start()
    try:
        verdict = rule_scan(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict == RuleVerdict(True, "GCD-span", (0, 3))
    assert peak < 1_000_000


def test_rule_scan_skips_sign_free_scan_when_a_signing_exists():
    # [5g 3 9 ... 3**21 7g], with g the signed sum of a strict signing of
    # [3 9 ... 3**21] stripped of its factors 2 and 3, is realizable, so
    # GCD-span walks no window; a scan of its span (0, 22) would need all
    # 2**21 signed inner sums modulo g
    inner = Pattern(tuple(3**k for k in range(1, 22)))
    g = abs(strict_realizability(inner).signed.signed_sum)
    for factor in (2, 3):
        while g % factor == 0:
            g //= factor
    p = Pattern((5 * g,) + inner.skips + (7 * g,))
    assert g == 2615088301
    assert strict_realizability(p).status == "realizable"
    tracemalloc.start()
    try:
        verdict = rule_scan(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict == RuleVerdict(False, None, None)
    assert peak < 1_000_000


def test_rule_soundness_exhaustive_small():
    # nothing rejected by the rules admits a strictly realizable signing
    for length in range(2, 5):
        for skips in product(range(1, 7), repeat=length):
            if not rule_scan(Pattern(skips)).forbidden:
                continue
            assert strict_realizability(Pattern(skips)).status != "realizable", skips


def test_rule_soundness_minimal_windows():
    # each window shape is checked directly on its own minimal patterns
    for a, b in product(range(1, 9), repeat=2):
        if a != b:
            if b % a:
                assert strict_realizability(Pattern((a, b, a))).status != "realizable"
            assert strict_realizability(Pattern((a, b, a, b))).status != "realizable"
    for a, b, c in product(range(1, 9), repeat=3):
        if len({a, b, c}) == 3 and a > b and a > c:
            assert strict_realizability(Pattern((a, b, c, a))).status != "realizable"
    for b, c in product(range(1, 8), repeat=2):
        if len({1, b, c}) == 3:
            assert (
                strict_realizability(Pattern((b, 1, c, 1, b, 1, c))).status
                != "realizable"
            )


def test_rule_soundness_random_longer():
    rng = random.Random(60)
    checked = 0
    for _ in range(1000):
        length = rng.randint(5, 6)
        skips = tuple(rng.randint(1, 8) for _ in range(length))
        if not rule_scan(Pattern(skips)).forbidden:
            continue
        checked += 1
        assert strict_realizability(Pattern(skips)).status != "realizable", skips
        if checked == 400:
            break
    else:
        pytest.fail(f"{checked} of 400 forbidden patterns before the draws ran out")


def longest_row(capsys, kind, skips):
    """The ``longest`` verb's one stdout line at cap 9."""
    assert main(["longest", "-s", skips, "--kind", kind, "--max-len", "9"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("\n") and out.count("\n") == 1
    return out[:-1]


def test_longest_path_rows(capsys):
    assert longest_row(capsys, "path", "1,3") == "2 path 3 1 [1 3 1]"
    assert longest_row(capsys, "path", "1,5,7") == "3 path 7 11 [1 5 1 7 1 5 1]"
    single = longest_path([3], 9)
    assert single.length == 1
    assert single.start == 0


def test_longest_odd_cycle_rows(capsys):
    assert longest_row(capsys, "cycle", "1,2,3") == "3 cycle 3 0 [2 1 3]"
    # {1,3,5,8} has a 20-vertex component, so cap 9 may hide a longer cycle
    assert longest_row(capsys, "cycle", "1,3,5,8") == "4 cycle 7 48 [8 1 3 1 5 1 3] (lower bound)"
    assert longest_odd_cycle([1, 3], 9) is None


# (kind, skips, max_len, start, signed), recorded from the search itself;
# no row is cut off by its max_len ({1,2,9,35,37}'s largest component has
# 88 vertices, so its cycle row is exact at cap 89)
PINNED_ROWS = [
    ("path", [1, 4, 7, 9], 64, 71, "[-1 +7 -1 -4 +9 -1 +4 +7 -1 +9 -1 +7 -1 +4 +9 -1 -4 +7 -1]"),
    (
        "path",
        [1, 3, 5, 22, 31],
        64,
        10039,
        "[-1 +3 -1 +5 -1 +31 -1 +3 -1 +22 +3 -1 +5 -1 +3 -1 +31 -3 +1 -5 +1 -3 +1]",
    ),
    ("cycle", [1, 3, 5, 22, 31], 25, 1488, "[+3 -1 +5 -1 +3 -1 +22 +1 -31]"),
    (
        "path",
        [1, 2, 9, 35, 37],
        64,
        15963,
        "[-1 -2 +35 -1 -2 +1 -9 +37 -1 +9 -1 +2 +35 -9 +2 +37 -1 -2 +9 -1 +35"
        " -1 -2 +37 -1 +2 +35 -1 +2 +37 -1 -2 +35 -1 -2 +9 -1 +37 -9 +2 +35"
        " -1 +9 -1 +2 +37 -1 -2 +1 -9 +35 -1 -2 +1]",
    ),
    ("cycle", [1, 2, 9, 35, 37], 89, 19240, "[+2 +9 -1 +35 -1 +2 +1 -9 -2 +1 -37]"),
    (
        "path",
        [1, 3, 4, 6, 10, 59],
        200,
        2849,
        "[-1 +4 +1 -3 -6 -4 +1 -3 -6 +59 -1 -10 +6 +3 -1 +4 +6 +3 -1 +10 +3 -1"
        " +4 +6 +3 -1 -4 +10 +1 -3 +6 +3 -1 +4 +10 +59 -1 +4 +6 +3 -1 +10 +3 -1"
        " +4 +6 +3 -1 -4 +10 +1 -3 +6 +3 -1 +4 +6 +3 -1 +59 -1 +3 -1 +4 +6 +3"
        " -1 +10 +3 -1 +4 +6 +3 -1 -4 +10 +1 -3 +6 +3 -1 +4 +6 +59 -1 -4 +6 +3"
        " -1 +4 +6 +3 -1 +10 +3 -1 +4 +6 +3 -1 -4 +10 +1 -3 +6 +3 -1 +4 +6 +3"
        " -1 -4 +59 -3 +6 +3 -1 +4 +6 +3 -1 +10 +3 -1 +4 +6 +3 -1 -4 +10 +1 -3"
        " +6 +3 -1 +4 +3 -1 +59 -1 +6 +3 -1 +4 +6 +3 -1 +10 +3 -1 +4 +6 +3 -1"
        " -4 +10 +1 -3 +6 +3 -1 +4 +6 +3 -1 -4 +1]",
    ),
]


@pytest.mark.parametrize(
    "kind,skips,max_len,start,signed",
    PINNED_ROWS,
    ids=[f"{kind}-{'-'.join(map(str, skips))}" for kind, skips, *_ in PINNED_ROWS],
)
def test_search_results_pinned(kind, skips, max_len, start, signed):
    search = longest_path if kind == "path" else longest_odd_cycle
    result = search(skips, max_len)
    assert format_pattern(result.signed) == signed
    assert (result.start, result.length) == (start, len(parse_pattern(signed)))
    assert not result.lower_bound


def test_search_results_validate():
    path = longest_path([1, 5, 7], 9)
    assert strict_realizability(path.signed).status == "realizable"
    cycle = longest_odd_cycle([1, 3, 5, 8], 9)
    verdict = valid_odd_cycle(cycle.signed)
    assert verdict.valid and verdict.witness_start == cycle.start


def test_search_is_deterministic():
    a = longest_odd_cycle([1, 2, 3, 5], 9)
    b = longest_odd_cycle([1, 2, 3, 5], 9)
    assert a == b
    assert longest_path([1, 4, 5], 10) == longest_path([1, 4, 5], 10)


def test_lower_bound_flag():
    capped = longest_path([1, 5, 7], 3)
    assert capped.lower_bound
    assert capped.length == 3
    full = longest_path([1, 3], 9)
    assert not full.lower_bound


def test_cycle_cap_below_a_longer_cycle_flags_lower_bound():
    # cap 31 returns an 11-cycle, yet cap 41 finds a 41-cycle: the cap hid
    # a longer result, so the row must read as a lower bound
    longer = longest_odd_cycle((1, 3, 4, 6, 13, 121), 41)
    assert longer.length == 41
    capped = longest_odd_cycle((1, 3, 4, 6, 13, 121), 31)
    assert capped.lower_bound


def test_capped_none_flags_lower_bound():
    # no odd cycle of {1,3,5,8} fits in 5 steps, yet cap 9 finds a 7-cycle:
    # the capped "none" reads as a lower bound; {1,3} has no odd cycle at
    # all, and its "none" is exact
    assert search._search([1, 3, 5, 8], 5, cycles=True) == (None, True)
    assert longest_odd_cycle([1, 3, 5, 8], 5) is None
    assert search._search([1, 3], 9, cycles=True) == (None, False)


def test_stored_six_set_cycle_row_is_the_search_row():
    # at cap 47 the search returns the stored 47-cycle of {1,3,4,6,13,121}
    # itself; the cap cut branches, so the row reads as a lower bound
    ((_, _, length, start, text),) = [row for row in KNOWN_LONG_ROWS if row[:2] == (6, "cycle")]
    result = longest_odd_cycle((1, 3, 4, 6, 13, 121), length)
    assert (result.length, result.start, format_pattern(result.pattern)) == (length, start, text)
    assert result.lower_bound


def _four_set_sample():
    rng = random.Random(3)
    sets = [s for s in combinations(range(1, 13), 4) if math.gcd(*s) == 1]
    return rng.sample(sets, 60)


def test_four_set_cycle_bound_sample():
    # no reduced 4-set here yields an odd cycle longer than 7
    for s in _four_set_sample():
        result = longest_odd_cycle(s, 9)
        if result is not None:
            assert result.length <= 7, s


def test_eleven_cycle_counterexample_uses_largest_twice():
    # six skips admit an 11-cycle whose largest skip repeats, so the
    # once-only bound genuinely stops at four skips
    sp = parse_pattern("[+18 +9 -3 +16 +20 +3 -9 -18 +3 -19 -20]")
    verdict = valid_odd_cycle(sp)
    assert verdict.valid and len(sp) == 11
    assert sp.skips.count(max(sp.skips)) == 2


def test_forcing_three_sets_only_have_triangles():
    for s in ([1, 2, 3], [2, 3, 5], [1, 4, 5], [3, 4, 7]):
        result = longest_odd_cycle(s, 9)
        assert result is not None and result.length == 3, s


def test_search_results_pass_rule_scan():
    # The DFS runs no window rule, so a rule that rejects one of the
    # results above is unsound.
    paths = [([1, 3], 9), ([1, 5, 7], 9), ([3], 9), ([1, 4, 5], 10), ([1, 5, 7], 3)]
    cycles = [[1, 2, 3], [1, 3, 5, 8], [1, 2, 3, 5], [2, 3, 5], [1, 4, 5], [3, 4, 7]]
    results = [longest_path(s, max_len) for s, max_len in paths]
    results += [longest_odd_cycle(s, 9) for s in cycles + _four_set_sample()]
    for result in filter(None, results):
        for p in (result.signed, result.pattern):
            assert not rule_scan(p).forbidden, (result, rule_scan(p))


def test_search_merges_only_surviving_steps(monkeypatch):
    # the DFS builds each step row once per modulus, across a path search
    # and a cycle search on the same skips, which share their tables; on
    # every row it builds the residue gate admits exactly the steps that
    # the reference merge (oracles.crt_merge) merges, with that merge's
    # congruence
    rows = []

    def recording_row(modulus, a):
        rows.append((modulus, a, realizability._step_row(modulus, a)))
        return rows[-1][2]

    monkeypatch.setattr(search, "_step_row", recording_row)
    rng = random.Random(15)
    checked = 0
    for skips in ([1, 5, 7], [1, 4, 7, 9], [1, 2, 9, 35, 37]):
        search._tables.cache_clear()
        rows.clear()
        longest_path(skips, 64)
        longest_odd_cycle(skips, 25)
        keys = [(modulus, a) for modulus, a, _ in rows]
        assert keys and len(set(keys)) == len(keys)
        for modulus, a, (g, step, inv) in rows:
            residues = range(modulus) if modulus <= 16 else rng.sample(range(modulus), 16)
            for residue in residues:
                for base in range(-a, a):
                    offset = -base - residue
                    for sign, diff in ((1, offset), (-1, offset + a)):
                        merged = crt_merge((residue, modulus), step_congruence(sign, a, base))
                        if diff % g:
                            assert merged is None
                        else:
                            checked += 1
                            k = diff // g * inv % step
                            assert merged == (residue + modulus * k, modulus * step)
    assert checked


def test_search_gate_admits_exactly_the_merging_steps(monkeypatch):
    # every (modulus, d) entry the DFS builds, once across a path search
    # and a cycle search on the same skips, lists, in walk order, exactly
    # the steps whose step congruence the reference merge (oracles.crt_merge)
    # merges from a term w with gcd(w, modulus) = d, each with that merge;
    # entries are checked as they are built, so a gate that admits too
    # much fails before its search blows up
    gate_of, moves_of = search._gate, search._moves
    moduli = {}
    keys = set()
    rng = random.Random(16)
    downs = {True: 0, False: 0}

    def recorded_gate(modulus, skips):
        gate = gate_of(modulus, skips)
        moduli[gate] = modulus, skips
        return gate

    def checked_moves(d, gate):
        (modulus, skips), moves = moduli[gate], moves_of(d, gate)
        assert (modulus, d) not in keys
        keys.add((modulus, d))
        order = [move for move, *_ in moves]
        assert order == sorted(order, key=lambda move: (move[1], -move[0]))
        residues = range(modulus) if modulus <= 8 else rng.sample(range(modulus), 8)
        for residue, k in product(residues, (-3, -1, 1, 2, 5)):
            w = d * k
            if math.gcd(w, modulus) != d:
                continue
            merges = {}
            for a, sign in product(skips, (1, -1)):
                merged = crt_merge((residue, modulus), step_congruence(sign, a, w - residue))
                if merged is not None:
                    merges[sign, a] = merged
            got = {}
            for (sign, a), delta, merge, child in moves:
                assert delta == sign * a
                merged = residue
                if merge:
                    shift, g, inv, step = merge
                    assert shift == (0 if sign > 0 else a)
                    merged += modulus * ((shift - w) // g * inv % step)
                got[sign, a] = merged, child
                if sign < 0:
                    downs[a % math.gcd(modulus, 2 * a) == 0] += 1
            assert got == merges, (modulus, d, residue, w)
        return moves

    monkeypatch.setattr(search, "_gate", recorded_gate)
    monkeypatch.setattr(search, "_moves", checked_moves)
    for skips in ([1, 5, 7], [1, 4, 7, 9], [1, 2, 9, 35, 37], [2, 3, 5, 7, 11, 13]):
        search._tables.cache_clear()
        keys.clear()
        longest_path(skips, 40)
        longest_odd_cycle(skips, 25)
        assert keys
    # -a passes both when g divides a and when a is g/2 mod g
    assert downs[True] and downs[False]


def test_search_tables_do_not_leak_between_skip_sets():
    # only the last skip set's tables are kept, and a search on another set
    # never reads them: searches on A, B, A in turn give the rows (flag
    # included) of searches that each start from an empty cache.  A and B
    # are panel 5-sets scaled by 3 that differ only in their largest skip.
    a = tuple(3 * x for x in (1, 14, 20, 25, 28))
    b = tuple(3 * x for x in (1, 14, 20, 25, 37))

    def fresh(skips, cap):
        search._tables.cache_clear()
        path = longest_path(skips, cap)
        search._tables.cache_clear()
        return path, longest_odd_cycle(skips, cap)

    for cap in (3, 25, 64):
        expected = {skips: fresh(skips, cap) for skips in (a, b)}
        for skips in (a, b, a):
            assert (longest_path(skips, cap), longest_odd_cycle(skips, cap)) == expected[skips], (skips, cap)
            assert search._tables.cache_info().currsize == 1


def test_integer_like_skips_search_as_ints():
    # numpy integers are read as Python ints, so a search on an array gives
    # the rows of a search on a list, whichever of the two fills the kept
    # tables first
    skips = [1, 3, 5, 8]
    for first, second in ((np.array(skips), skips), (skips, np.array(skips))):
        rows = [(longest_path(s, 9), longest_odd_cycle(s, 9)) for s in (first, second)]
        assert rows[0] == rows[1]
        assert all(type(x) is int for row in rows[0] for x in (row.start, *row.pattern.skips))


def test_golden_digest():
    # every path and odd-cycle result on the 1 079 subsets of 1..13 with
    # 2-4 elements and 40 seeded 5-subsets of 1..40
    sets = [s for k in range(2, 5) for s in combinations(range(1, 14), k)]
    rng = random.Random(14)
    sets += [tuple(sorted(rng.sample(range(1, 41), 5))) for _ in range(40)]
    lines = []
    for s in sets:
        lines.append(repr(longest_path(s, 40)))
        lines.append(repr(longest_odd_cycle(s, 19)))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "f765002c67d8c1fcadebd5e82e3f0a5be73afe145da7168f421d7546859f13b8"


def test_signed_rule_scan_matches_the_span_scan():
    # every signing of the rows above plus 2 000 seeded random signed
    # patterns: GCD-span fires just when some span fails, and reports the
    # window whose end k is the least j of a failing span (i, j), and
    # whose start is the largest i failing with k
    patterns = []
    for text, _, _ in FIRES + SIGN_RULES:
        skips = parse_pattern(text).skips
        for signs in product((1, -1), repeat=len(skips)):
            patterns.append(SignedPattern(tuple(zip(signs, skips))))
    rng = random.Random(16)
    for _ in range(2000):
        skips = [rng.randint(1, 24) for _ in range(rng.randint(2, 9))]
        patterns.append(SignedPattern(tuple((rng.choice((1, -1)), a) for a in skips)))
    failing = 0
    for p in patterns:
        spans = [(i, j) for i, j in combinations(range(len(p)), 2) if not check_subpath(p, i, j).ok]
        failing += bool(spans)
        k = min((j for _, j in spans), default=None)
        window = None if k is None else (max(i for i, j in spans if j == k), k)
        assert search._gcd_span(p) == window
    assert failing == 2139
    lines = [repr(rule_scan(p)) for p in patterns]
    assert sum("GCD-span" in line for line in lines) == 25
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "95fdb28bcea008244b61f44fb7dc4866e9e7a2c0fe90002df772dd233e635073"
