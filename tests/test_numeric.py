import math
import random
from functools import reduce
from itertools import permutations

import pytest

from hapdisc.numeric import two_adic_valuation

from oracles import brute_congruence_solution, crt_merge


@pytest.mark.parametrize("n,expected", [(1, 0), (8, 3), (12, 2), (3, 0), (48, 4)])
def test_two_adic_valuation(n, expected):
    assert two_adic_valuation(n) == expected


@pytest.mark.parametrize("bad", [0, -1, -12])
def test_two_adic_valuation_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        two_adic_valuation(bad)


def test_valuation_doubles():
    for n in range(1, 2000):
        assert two_adic_valuation(2 * n) == two_adic_valuation(n) + 1


def _solve(pairs):
    """Fold crt_merge left from the trivial congruence, as the walks do."""
    return reduce(lambda acc, c: None if acc is None else crt_merge(acc, c), pairs, (0, 1))


def test_congruence_normalizes():
    assert crt_merge((-1, 6), (0, 1)) == (5, 6)
    assert crt_merge((0, 1), (-13, 6)) == (5, 6)
    with pytest.raises(ValueError):
        crt_merge((0, 0), (0, 1))
    with pytest.raises(ValueError):
        crt_merge((0, 1), (0, -6))


def test_crt_merge_frozen_examples():
    # brute-force scan of 0..5 confirms the merged residue
    assert brute_congruence_solution([(0, 2), (1, 3)]) == 4
    assert crt_merge((0, 2), (1, 3)) == (4, 6)

    # incompatible parity: gcd(2, 4) = 2 does not divide 1 - 0
    assert crt_merge((1, 2), (0, 4)) is None

    assert crt_merge((0, 1), (0, 1)) == (0, 1)


def test_crt_random_systems_match_brute_force():
    rng = random.Random(1729)
    done = 0
    while done < 400:
        k = rng.randint(1, 6)
        moduli = [rng.randint(1, 64) for _ in range(k)]
        if math.lcm(*moduli) > 100_000:
            continue  # keep the brute-force scan honest but affordable
        done += 1
        if rng.random() < 0.5:
            x = rng.randrange(0, math.lcm(*moduli))
            residues = [x % m for m in moduli]
        else:
            residues = [rng.randrange(0, m) for m in moduli]
        pairs = list(zip(residues, moduli))
        expected = brute_congruence_solution(pairs)
        got = _solve(pairs)
        if expected is None:
            assert got is None
        else:
            assert got is not None
            assert got[0] == expected
            assert got[1] == math.lcm(*moduli)
            assert all(got[0] % m == r for r, m in pairs)


def test_crt_merge_fold_is_order_independent():
    rng = random.Random(99)
    for _ in range(60):
        k = rng.randint(2, 4)
        moduli = [rng.randint(1, 24) for _ in range(k)]
        x = rng.randrange(0, math.lcm(*moduli))
        pairs = [(x % m, m) for m in moduli]
        results = {_solve(p) for p in permutations(pairs)}
        assert len(results) == 1


def test_crt_merge_handles_huge_integers():
    a = (1, 10**40)
    b = (1 + 10**40 * 3, 10**41)
    assert crt_merge(a, b) == (1 + 3 * 10**40, 10**41)
