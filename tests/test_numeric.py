import math
import random
from itertools import permutations

import pytest

from hapdisc.numeric import Congruence, crt_merge, crt_solve, two_adic_valuation

from oracles import brute_congruence_solution


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


def test_congruence_normalizes():
    c = Congruence(-1, 6)
    assert c.residue == 5
    assert c.satisfied_by(11)
    with pytest.raises(ValueError):
        Congruence(0, 0)


def test_crt_solve_frozen_examples():
    # brute-force scan of 0..5 confirms the merged residue
    assert brute_congruence_solution([(0, 2), (1, 3)]) == 4
    assert crt_solve([Congruence(0, 2), Congruence(1, 3)]) == Congruence(4, 6)

    # incompatible parity: gcd(2, 4) = 2 does not divide 1 - 0
    assert crt_solve([Congruence(1, 2), Congruence(0, 4)]) is None

    assert crt_solve([Congruence(0, 1)]) == Congruence(0, 1)


def test_crt_solve_requires_input():
    with pytest.raises(ValueError):
        crt_solve([])


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
        congruences = [Congruence(r, m) for r, m in zip(residues, moduli)]
        expected = brute_congruence_solution(list(zip(residues, moduli)))
        got = crt_solve(congruences)
        if expected is None:
            assert got is None
        else:
            assert got is not None
            assert got.residue == expected
            assert got.modulus == math.lcm(*moduli)
            assert all(c.satisfied_by(got.residue) for c in congruences)


def test_crt_solve_is_order_independent():
    rng = random.Random(99)
    for _ in range(60):
        k = rng.randint(2, 4)
        moduli = [rng.randint(1, 24) for _ in range(k)]
        x = rng.randrange(0, math.lcm(*moduli))
        congruences = [Congruence(x % m, m) for m in moduli]
        results = {crt_solve(list(p)) for p in permutations(congruences)}
        assert len(results) == 1


def test_crt_merge_handles_huge_integers():
    a = Congruence(1, 10**40)
    b = Congruence(1 + 10**40 * 3, 10**41)
    merged = crt_merge(a, b)
    assert merged is not None
    assert merged.satisfied_by(1 + 3 * 10**40)
