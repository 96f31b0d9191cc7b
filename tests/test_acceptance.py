"""Acceptance suite: one test per criterion, each printing a PASS line.

The sweeps are shared through module-scoped fixtures so the classifier
verifications, the graph oracle and the structural certificate checks run
over the same data.
"""

import math
import random
import time
from itertools import combinations, product

import pytest

from hapdisc.classify import classify
from hapdisc.pattern import Pattern, SignedPattern, infer_signs, parse_pattern, realize
from hapdisc.realizability import (
    REALIZABLE,
    basic_parity_test,
    check_subpath,
    strict_realizability,
    valid_odd_cycle,
    weakly_realizable,
)
from hapdisc.reduction import (
    ESSInstance,
    build_d1_instance,
    ess_solve,
    mod_nM_audit,
    witness_cycle,
)
from hapdisc.search import longest_odd_cycle, longest_path
from hapdisc.skipgraph import build_graph, find_odd_cycle, two_color, verify_discrepancy

from oracles import least_walk_start

# long path/cycle certificates for small skip-set sizes:
# (size, kind, length, start, pattern)
KNOWN_LONG_ROWS = [
    (2, "path", 3, 1, "[1 3 1]"),
    (3, "cycle", 3, 0, "[2 1 3]"),
    (3, "path", 7, 11, "[1 5 1 7 1 5 1]"),
    (4, "cycle", 7, 48, "[8 1 3 1 5 1 3]"),
    (4, "path", 18, 70, "[7 1 4 9 1 4 7 1 9 1 7 1 4 9 1 4 7 1]"),
    (5, "cycle", 19, 45756, "[62 1 9 5 11 1 5 1 9 1 11 1 9 1 5 1 11 5 9]"),
    (
        5,
        "path",
        53,
        15962,
        "[2 35 1 2 1 9 37 1 9 1 2 35 9 2 37 1 2 9 1 35 1 2 37 1 2 35 1 2 37 1 "
        "2 35 1 2 9 1 37 9 2 35 1 9 1 2 37 1 2 1 9 35 1 2 1]",
    ),
    (
        6,
        "cycle",
        47,
        4836,
        "[6 3 1 4 121 1 4 1 3 6 4 1 13 1 3 6 4 1 3 1 13 6 4 1 3 6 4 1 13 4 1 "
        "3 6 4 1 3 6 3 13 1 3 4 1 3 6 1 13]",
    ),
    (
        6,
        "path",
        165,
        2848,
        "[4 1 3 10 1 3 6 59 1 10 6 3 1 4 6 3 1 10 3 1 4 6 3 1 4 10 1 3 6 3 1 "
        "4 10 59 1 4 6 3 1 10 3 1 4 6 3 1 4 10 1 3 6 3 1 4 6 3 1 59 1 3 1 4 "
        "6 3 1 10 3 1 4 6 3 1 4 10 1 3 6 3 1 4 6 59 1 4 6 3 1 4 6 3 1 10 3 1 "
        "4 6 3 1 4 10 1 3 6 3 1 4 6 3 1 4 59 3 6 3 1 4 6 3 1 10 3 1 4 6 3 1 "
        "4 10 1 3 6 3 1 4 3 1 59 1 6 3 1 4 6 3 1 10 3 1 4 6 3 1 4 10 1 3 6 3 "
        "1 4 6 3 1 4 1]",
    ),
]

ELEVEN_CYCLE = "[+18 +9 -3 +16 +20 +3 -9 -18 +3 -19 -20]"
ELEVEN_CYCLE_SET = (3, 9, 16, 18, 19, 20)


def report(n: int, text: str) -> None:
    print(f"[criterion {n}] PASS - {text}")


@pytest.fixture(scope="module")
def size3_sweep():
    """(elements, classifier forces, oracle forces) for reduced 3-sets <= 30."""
    rows = []
    for s in combinations(range(1, 31), 3):
        if math.gcd(*s) != 1:
            continue
        forces = classify(s).forces
        oracle = two_color(build_graph(s)) is None
        rows.append((s, forces, oracle))
    return rows


@pytest.fixture(scope="module")
def size4_sweep():
    """Same for reduced 4-sets with elements <= 20 and period <= 2**22."""
    rows = []
    for s in combinations(range(1, 21), 4):
        if math.gcd(*s) != 1:
            continue
        if 2 * math.lcm(*s) > 2**22:
            continue
        forces = classify(s).forces
        oracle = two_color(build_graph(s)) is None
        rows.append((s, forces, oracle))
    return rows


@pytest.fixture(scope="module")
def cycle_bound_sweep():
    """Exhaustive bounded cycle search over reduced 4-sets <= 15."""
    rows = []
    for s in combinations(range(1, 16), 4):
        if math.gcd(*s) != 1:
            continue
        rows.append((s, longest_odd_cycle(s, max_len=9)))
    return rows


def test_criterion_01_long_row_fixtures():
    t0 = time.time()
    for size, kind, length, start, text in KNOWN_LONG_ROWS:
        p = parse_pattern(text)
        assert isinstance(p, Pattern)
        assert len(set(p.skips)) == size
        assert len(p) == length
        sp = infer_signs(p, start)
        walk = realize(sp, start)
        assert walk.is_parity_valid, (text, walk.parity_violations)
        if kind == "cycle":
            assert sp.signed_sum == 0
            assert length % 2 == 1
            assert walk.is_closed
        else:
            assert not walk.repeated_terms()
    elapsed = time.time() - t0
    assert elapsed < 1.0, f"fixture suite took {elapsed:.2f}s"
    report(1, f"all {len(KNOWN_LONG_ROWS)} stored rows realize correctly ({elapsed:.2f}s)")


def test_stored_path_rows_extend_by_one_step():
    # Each stored path of 4-6 skips starts on an even term and never visits
    # the odd term just above it, so the step -1 down from that term
    # prepends: one step longer, starting one higher.  For 4 and 5 skips
    # the extension is the search's own row.
    for size, kind, length, start, text in KNOWN_LONG_ROWS:
        if kind != "path" or size < 4:
            continue
        p = parse_pattern(text)
        longer = SignedPattern(((-1, 1),) + infer_signs(p, start).steps)
        verdict = strict_realizability(longer)
        assert verdict.status == REALIZABLE, text
        assert (len(longer), verdict.witness_start) == (length + 1, start + 1)
        if size <= 5:
            found = longest_path(sorted(set(p.skips)))
            assert (found.signed, found.start) == (longer, start + 1)


def test_criterion_02_eleven_cycle():
    t0 = time.time()
    sp = parse_pattern(ELEVEN_CYCLE)
    assert set(sp.skips) == set(ELEVEN_CYCLE_SET)
    verdict = valid_odd_cycle(sp)
    assert verdict.valid
    assert verdict.witness_start == 360
    walk = realize(sp, 360)
    assert walk.is_parity_valid and walk.is_closed
    assert sp.skips.count(max(ELEVEN_CYCLE_SET)) == 2
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(2, "11-cycle validates at 360 and uses skip 20 twice")


def test_criterion_03_start_system_matches_walk_oracle():
    checked = 0
    # exhaustive over signed patterns of length <= 4 on skips 1..8
    for length in range(1, 5):
        for skips in product(range(1, 9), repeat=length):
            for signs in product((1, -1), repeat=length):
                sp = SignedPattern(tuple(zip(signs, skips)))
                verdict = weakly_realizable(sp)
                start = least_walk_start(sp)
                assert (verdict.status != "forbidden") == (start is not None), sp.steps
                if start is not None:
                    assert verdict.witness_start == start, sp.steps
                checked += 1
    exhaustive = checked
    # sampled lengths 5..6, at least 10**5 cases
    rng = random.Random(20260811)
    for _ in range(100_000):
        length = rng.choice((5, 6))
        sp = SignedPattern(
            tuple((rng.choice((1, -1)), rng.randint(1, 8)) for _ in range(length))
        )
        verdict = weakly_realizable(sp)
        start = least_walk_start(sp)
        assert (verdict.status != "forbidden") == (start is not None), sp.steps
        if start is not None:
            assert verdict.witness_start == start, sp.steps
        checked += 1
    report(3, f"zero disagreements over {checked} cases ({exhaustive} exhaustive)")


def test_criterion_04_counterexample_fixtures():
    sp = parse_pattern("[+4 +3 -1 +2]")
    assert basic_parity_test(sp)
    n = len(sp)
    for i in range(n):
        for j in range(i + 1, n):
            assert check_subpath(sp, i, j).divisibility_ok, (i, j)
            if (i, j) != (0, 3):
                assert check_subpath(sp, i, j).parity_ok, (i, j)
    full_span = check_subpath(sp, 0, 3)
    assert not full_span.parity_ok
    assert weakly_realizable(sp).status == "forbidden"

    assert strict_realizability(Pattern((2, 1, 3, 4))).status == "weakly-realizable"

    for signs in product((1, -1), repeat=3):
        signed = SignedPattern(tuple(zip(signs, (5, 1, 10))))
        assert weakly_realizable(signed).status == "forbidden"
    report(4, "span-parity, weak-only and forbidden fixtures all hold")


def test_criterion_05_size3_classifier_sweep(size3_sweep):
    disagreements = [s for s, forces, oracle in size3_sweep if forces != oracle]
    assert disagreements == []
    forcing = [s for s, forces, _ in size3_sweep if forces]
    for s in forcing:
        result = longest_odd_cycle(s, max_len=9)
        assert result is not None and result.length == 3, s
    report(
        5,
        f"{len(size3_sweep)} reduced 3-sets agree with the graph oracle; "
        f"{len(forcing)} forcing sets admit only 3-cycles up to length 9",
    )


def test_criterion_06_size4_classifier_sweep(size4_sweep):
    disagreements = [s for s, forces, oracle in size4_sweep if forces != oracle]
    assert disagreements == []
    report(
        6,
        f"{len(size4_sweep)} reduced 4-sets (elements <= 20) agree with the graph oracle",
    )


def test_criterion_07_cycle_length_bound(cycle_bound_sweep):
    for s, result in cycle_bound_sweep:
        if result is not None:
            assert result.length <= 7, (s, result.length)
    found = sum(1 for _, r in cycle_bound_sweep if r is not None)
    report(
        7,
        f"no odd cycle longer than 7 over {len(cycle_bound_sweep)} reduced 4-sets "
        f"(elements <= 15, searched to length 9; {found} forcing)",
    )


def _certificate_checks(skips, sp: SignedPattern):
    used = sorted(set(sp.skips))
    reduced_used = [u // math.gcd(*used) for u in used]
    odd_used = [u for u in reduced_used if u % 2]
    assert len(odd_used) >= 2, (skips, sp.skips)
    assert sp.skips.count(max(used)) == 1, (skips, sp.skips)


def test_criterion_08_structural_properties(size3_sweep, size4_sweep, cycle_bound_sweep):
    certified = 0
    for s, forces, _ in size3_sweep:
        if forces:
            cert = find_odd_cycle(build_graph(s))
            assert cert is not None
            _certificate_checks(s, cert.signed_pattern)
            certified += 1
    for s, forces, _ in size4_sweep:
        if forces:
            cert = find_odd_cycle(build_graph(s))
            assert cert is not None
            _certificate_checks(s, cert.signed_pattern)
            certified += 1
    for s, result in cycle_bound_sweep:
        if result is not None:
            _certificate_checks(s, result.signed)
            certified += 1
    report(
        8,
        f"{certified} certificates use >= 2 odd skips after reduction and "
        "their largest skip exactly once",
    )


def test_criterion_09_reduction_forward_direction():
    positive = 0
    for size in (1, 2, 3, 4):
        for values in combinations(range(1, 10), size):
            inst = ESSInstance.of(values)
            inst_witness = ess_solve(inst)
            ri = build_d1_instance(inst)  # construction also checks coprimality
            for u, v in combinations(ri.skip_set, 2):
                assert math.gcd(u, v) == 1
            if inst.n >= 2:
                assert ri.M % 2 == 0
                assert all(x % 2 == 1 for x in ri.s)
                assert ri.t % 2 == 1
            if inst_witness is None:
                continue
            positive += 1
            cycle = witness_cycle(ri, inst_witness)
            assert cycle.signed_sum == 0
            assert len(cycle) % 2 == 1
            assert weakly_realizable(cycle).status == "weakly-realizable"
            assert mod_nM_audit(ri, cycle).ok
    assert positive > 0
    report(
        9,
        f"{positive} equal-sum witnesses produced odd, zero-sum, weakly "
        "realizable cycles passing the residue audit",
    )


def test_criterion_10_coloring_soundness():
    rng = random.Random(97)
    verified = 0
    while verified < 100:
        size = rng.randint(2, 5)
        skips = tuple(sorted(rng.sample(range(1, 25), size)))
        period = 2 * math.lcm(*skips)
        if period > 2**20:
            continue
        coloring = two_color(build_graph(skips))
        if coloring is None:
            continue
        assert verify_discrepancy(coloring, skips, 10 * period) <= 1, skips
        verified += 1
    report(10, "100 random non-forcing sets color with discrepancy 1 over 10 periods")
