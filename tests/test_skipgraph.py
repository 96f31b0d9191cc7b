import math
import random

import numpy as np
import pytest

from hapdisc.pattern import format_pattern, realize
from hapdisc.realizability import valid_odd_cycle
from hapdisc.skipgraph import (
    Coloring,
    PeriodCapExceeded,
    build_graph,
    find_odd_cycle,
    solve_block,
    two_color,
    verify_discrepancy,
)

from oracles import discrepancy_scan


def coloring_is_proper(coloring, graph) -> bool:
    return all(
        coloring[u] != coloring[v] for v in range(graph.period) for u in graph.neighbors(v)
    )


def test_build_graph_period_and_degree_sum():
    g = build_graph([2, 3, 4])
    assert g.period == 24
    # even multiples of s below lcm: lcm/s = 6 + 4 + 3 arcs per block,
    # each counted once from either end
    assert sum(len(g.neighbors(v)) for v in range(g.period)) == 2 * 13
    assert all(0 <= u < g.period for v in range(g.period) for u in g.neighbors(v))


def test_build_graph_single_skip():
    g = build_graph([1])
    assert g.period == 2
    assert g.neighbors(0) == [1]
    assert g.neighbors(1) == [0]


def test_build_graph_cap():
    period = 2 * math.lcm(3, 9, 16, 18, 19, 20)
    with pytest.raises(PeriodCapExceeded) as err:
        build_graph([3, 9, 16, 18, 19, 20], cap=1000)
    assert err.value.period == period
    g = build_graph([3, 9, 16, 18, 19, 20], cap=period)
    assert g.period == period


def test_two_color_small_sets():
    g13 = build_graph([1, 3])
    coloring = two_color(g13)
    assert coloring is not None
    assert coloring_is_proper(coloring, g13)

    assert two_color(build_graph([1, 2, 3])) is None

    # 1+3=4 but 1 and 3 share the lowest 2-adic class, so no odd cycle
    g134 = build_graph([1, 3, 4])
    coloring = two_color(g134)
    assert coloring is not None
    assert coloring_is_proper(coloring, g134)


def test_coloring_extends_periodically():
    g = build_graph([2, 3, 4])
    coloring = two_color(g)
    assert coloring is not None
    for v in (0, 1, 5, 23):
        assert coloring[v] == coloring[v + g.period] == coloring[v + 10 * g.period]


def test_find_odd_cycle_triangle():
    cert = find_odd_cycle(build_graph([1, 2, 3]))
    assert cert is not None
    assert format_pattern(cert.signed_pattern) == "[+2 +1 -3]"
    assert cert.start == 0


def test_find_odd_cycle_seven():
    cert = find_odd_cycle(build_graph([1, 3, 5, 8]))
    assert cert is not None
    assert len(cert.signed_pattern) == 7
    assert cert.start == 48
    assert valid_odd_cycle(cert.signed_pattern).valid


@pytest.mark.parametrize(
    "skips, pattern, start",
    [
        ((1, 2, 4, 21, 22, 29), "[+4 +2 +29 -1 -2 +4 +2 -22 +4 +2 +1 -21 -2]", 28936),
        ((3, 9, 12, 18, 28, 39), "[+18 +9 -3 +12 +18 +9 -3 -12 +3 -39 -12]", 144),
        ((1, 2, 17, 26, 30, 39), "[+26 -2 +30 -2 +1 -17 +2 +1 -39]", 8736),
        ((1, 3, 5, 22, 31), "[+3 -1 +5 -1 +3 -1 +22 +1 -31]", 1488),
    ],
)
def test_find_odd_cycle_pinned_certificates(skips, pattern, start):
    # long tree paths on both sides of the conflict edge
    cert = find_odd_cycle(build_graph(skips))
    assert cert is not None
    assert format_pattern(cert.signed_pattern) == pattern
    assert cert.start == start


def test_find_odd_cycle_none_for_two_skips():
    assert find_odd_cycle(build_graph([1, 3])) is None


def test_exactly_one_of_color_and_cycle_succeeds():
    rng = random.Random(12)
    for _ in range(60):
        size = rng.randint(1, 5)
        skips = rng.sample(range(1, 13), size)
        g = build_graph(skips)
        coloring = two_color(g)
        cert = find_odd_cycle(g)
        assert (coloring is None) != (cert is None)
        found = solve_block(g)
        if coloring is not None:
            assert isinstance(found, Coloring)
            assert np.array_equal(found.values, coloring.values)
        else:
            assert found == cert
        if coloring is not None:
            assert coloring_is_proper(coloring, g)
        else:
            verdict = valid_odd_cycle(cert.signed_pattern)
            assert verdict.valid
            assert set(cert.signed_pattern.skips) <= set(skips)
            walk = realize(cert.signed_pattern, cert.start)
            assert walk.is_parity_valid and walk.is_closed


def test_certificate_start_realizes_cycle():
    cert = find_odd_cycle(build_graph([1, 2, 3]))
    walk = realize(cert.signed_pattern, cert.start)
    assert walk.is_parity_valid
    assert walk.is_closed
    assert not walk.repeated_terms(as_cycle=True)


def test_verify_discrepancy_alternating():
    coloring = Coloring.from_values([1, -1])
    assert verify_discrepancy(coloring, [1], 100) == 1


def test_verify_discrepancy_monotone():
    coloring = Coloring.from_values([1, 1])
    assert verify_discrepancy(coloring, [1], 100) >= 2


def test_verify_discrepancy_two_color_output():
    g = build_graph([2, 3, 4])
    coloring = two_color(g)
    assert verify_discrepancy(coloring, [2, 3, 4], 10 * g.period) == 1


def test_verify_discrepancy_huge_horizon():
    # s = 1 reads +1 -1 +1 +1 per cycle of four terms, so its partial sum
    # gains 2 every cycle; s = 2 reads -1 +1 and stays within 1
    values = [1, 1, -1, 1]
    coloring = Coloring.from_values(values)
    assert verify_discrepancy(coloring, [1, 2], 400) == discrepancy_scan(values, [1, 2], 400) == 200
    assert verify_discrepancy(coloring, [1, 2], 10**11) == 5 * 10**10
    assert verify_discrepancy(coloring, [1, 2], 10**40 + 3) == 5 * 10**39 + 1


def test_verify_discrepancy_horizon_precondition():
    with pytest.raises(ValueError):
        verify_discrepancy(Coloring.from_values([1, -1]), [5], 3)


def test_proper_coloring_keeps_discrepancy_one_on_period_multiples():
    rng = random.Random(77)
    done = 0
    while done < 15:
        size = rng.randint(2, 4)
        skips = rng.sample(range(1, 11), size)
        g = build_graph(skips)
        coloring = two_color(g)
        if coloring is None:
            continue
        done += 1
        for blocks in (1, 3, 8):
            assert verify_discrepancy(coloring, skips, blocks * g.period) <= 1


def test_coloring_line_round_trip():
    g = build_graph([1, 3])
    coloring = two_color(g)
    tokens = coloring.line().split()
    assert len(tokens) == g.period
    rebuilt = Coloring.from_values([1 if t == "+1" else -1 for t in tokens])
    assert np.array_equal(rebuilt.values, coloring.values)
