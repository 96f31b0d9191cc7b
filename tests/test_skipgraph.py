import hashlib
import math
import random
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from hapdisc import skipgraph
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
            assert not walk.parity_violations and walk.is_closed


def test_certificate_start_realizes_cycle():
    cert = find_odd_cycle(build_graph([1, 2, 3]))
    walk = realize(cert.signed_pattern, cert.start)
    assert not walk.parity_violations
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


def _certificate_bytes(found):
    if isinstance(found, Coloring):
        return found.values.tobytes()
    return repr(found)


def test_union_find_matches_bfs_on_small_sets(monkeypatch):
    # every block below 2**16 takes the BFS; the union-find must give the
    # same coloring, or the same certificate through its BFS restart
    sets = [s for k in (2, 3, 4) for s in combinations(range(1, 14), k) if math.gcd(*s) == 1]
    assert max(2 * math.lcm(*s) for s in sets) < skipgraph._VECTOR_MIN_PERIOD
    by_bfs = [_certificate_bytes(solve_block(build_graph(s))) for s in sets]
    monkeypatch.setattr(skipgraph, "_VECTOR_MIN_PERIOD", 1)
    by_union_find = [_certificate_bytes(solve_block(build_graph(s))) for s in sets]
    assert by_union_find == by_bfs
    assert sum(isinstance(found, str) for found in by_bfs) == 260


def test_bfs_golden_digest():
    # every coloring and certificate of the 2499 blocks below 2**16 among
    # the 2-4-subsets of 1..16, all decided by the BFS; recorded from the
    # BFS that tested every vertex for an edge and split v by divmod
    digest = hashlib.sha256()
    blocks = 0
    for k in (2, 3, 4):
        for s in combinations(range(1, 17), k):
            if 2 * math.lcm(*s) < skipgraph._VECTOR_MIN_PERIOD:
                found = _certificate_bytes(solve_block(build_graph(s)))
                digest.update(found if isinstance(found, bytes) else found.encode())
                blocks += 1
    assert blocks == 2499
    assert digest.hexdigest() == "f75f727f69b17a5b10ff6f467e6dbccdaf40569af5f2df29f8a6bc360badf36e"


@pytest.mark.parametrize(
    "skips, minus",
    [
        ((4, 6), [4, 6, 12, 20]),  # 16 of the 24 vertices are isolated
        ((3,), [3]),
        ((1, 3), [1, 3, 5]),  # skip 1 leaves no vertex isolated
        ((1, 4, 6), [1, 3, 4, 6, 9, 11, 12, 15, 17, 19, 20, 23]),
    ],
)
def test_bfs_coloring_pinned(skips, minus):
    # each component's least vertex is +1 and every isolated vertex is +1
    g = build_graph(skips)
    coloring = solve_block(g)
    assert isinstance(coloring, Coloring)
    assert coloring_is_proper(coloring, g)
    assert [v for v in range(g.period) if coloring[v] < 0] == minus


def test_bfs_odd_cycle_in_a_later_component():
    # the triangle of {2, 3, 5} lies in the component whose least vertex
    # is 40, so the BFS colors the earlier components before it
    g = build_graph([2, 3, 5])
    reached, stack = {0}, [0]
    while stack:
        for u in g.neighbors(stack.pop()):
            if u not in reached:
                reached.add(u)
                stack.append(u)
    assert 40 not in reached
    cert = solve_block(g)
    assert format_pattern(cert.signed_pattern) == "[+2 +3 -5]"
    assert cert.start == 40


def _and_by_bfs(cases):
    """Each case under the id pytest gives it alone, then again with
    ``bfs`` set and "-bfs" appended: the cut then lies above the block, so
    the BFS walks all of it."""
    ids = ["-".join([f"skips{k}", *map(str, rest)]) for k, (_, *rest) in enumerate(cases)]
    return [
        pytest.param(*case, bfs, id=name + "-bfs" * bfs)
        for bfs in (False, True)
        for case, name in zip(cases, ids)
    ]


@pytest.mark.parametrize(
    "skips, digest, bfs",
    _and_by_bfs(
        [
            ((1, 5, 23, 43, 53), "294167fb12f6295d"),
            ((7, 9, 11, 13, 16), "23ef11b87552efd7"),
            ((17, 28, 29, 60), "25a82d6fa3ca6c0b"),  # 86 % of the block isolated
        ]
    ),
)
def test_large_block_coloring_pinned(skips, digest, bfs, monkeypatch):
    # recorded from the BFS over the whole block
    g = build_graph(skips)
    if bfs:
        monkeypatch.setattr(skipgraph, "_VECTOR_MIN_PERIOD", g.period + 1)
    coloring = solve_block(g)
    assert isinstance(coloring, Coloring)
    assert hashlib.sha256(coloring.line().encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize(
    "skips, first, pattern, start, bfs",
    _and_by_bfs(
        [
            ((13, 24, 27, 51), 4080, "[+24 +27 -51]", 4080),
            ((1, 5, 21, 34, 40, 54), 23760, "[+40 +34 +1 -21 -54]", 23760),
            ((14, 18, 28, 33, 48, 57), 10584, "[+28 +14 +33 -57 -18]", 10584),
        ]
    ),
)
def test_large_block_certificate_pinned(skips, first, pattern, start, bfs, monkeypatch):
    # recorded from the BFS over the whole block; the union-find starts the
    # BFS at ``first``, the least vertex of the first odd component
    g = build_graph(skips)
    assert g.period >= skipgraph._VECTOR_MIN_PERIOD
    assert skipgraph._parity_union_find(g) == first
    if bfs:
        monkeypatch.setattr(skipgraph, "_VECTOR_MIN_PERIOD", g.period + 1)
    cert = solve_block(g)
    assert format_pattern(cert.signed_pattern) == pattern
    assert cert.start == start


def test_union_find_memory_stays_flat():
    # a dense 524170-vertex block, whose edges are made per chunk each
    # round, and a sparse 414120-vertex one, relabelled to its live
    # vertices: no materialized graph or double cover, and no int64 edge
    # arrays.  The odd sparse 421344-vertex block peaked at 3.52 MB with
    # numpy 2.4 (3.80 MB while its live vertices were kept as int64).
    for skips, bound in (
        ((1, 5, 23, 43, 53), 8_000_000),
        ((17, 28, 29, 60), 8_000_000),
        ((14, 18, 28, 33, 48, 57), 3_700_000),
    ):
        g = build_graph(skips)
        tracemalloc.start()
        try:
            solve_block(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (skips, peak)
