import hashlib
import importlib
import json
import math
import random
from itertools import combinations

import pytest

from hapdisc.classify import Classification, UnsupportedSizeError, classify
from hapdisc.cli import main
from hapdisc.pattern import SignedPattern, format_pattern, realize
from hapdisc.realizability import valid_odd_cycle
from hapdisc.skipgraph import OddCycleCertificate, build_graph, solve_block


def oracle_forces(skips) -> bool:
    return isinstance(solve_block(build_graph(skips)), OddCycleCertificate)


def test_skip_set_construction():
    # the input is sorted, and the cycle is labeled by its own skips
    result = classify([6, 2, 4])
    assert result.labeling == {"a": 4, "b": 2, "c": 6}
    assert format_pattern(result.predicted_cycle) == "[+4 +2 -6]"
    with pytest.raises(ValueError):
        classify([])
    with pytest.raises(ValueError):
        classify([0, 1])


@pytest.mark.parametrize(
    "values,reduced,factor",
    [
        ([2, 4, 6], (1, 2, 3), 2),
        ([1, 2, 3], (1, 2, 3), 1),
        ([6, 10, 16], (3, 5, 8), 2),
        ([2, 6, 10, 16], (1, 3, 5, 8), 2),
    ],
)
def test_reduce_set(values, reduced, factor):
    # the verdict on a set is its reduced set's, scaled by the factor; a
    # walk from t visits distinct terms iff one from t // factor does on
    # the reduced skips, so the least start scales too
    base = classify(reduced)
    if not base.forces:
        assert classify(values) == base
        return
    assert classify(values) == Classification(
        True,
        base.rule,
        {k: factor * v for k, v in base.labeling.items()},
        SignedPattern(tuple((sign, factor * skip) for sign, skip in base.predicted_cycle.steps)),
        factor * base.predicted_start,
        base.satisfied_bullets,
    )


def test_classify_size3_forcing_triple():
    result = classify([1, 2, 3])
    assert result.forces and result.rule == "size3"
    assert result.labeling == {"a": 2, "b": 1, "c": 3}
    assert format_pattern(result.predicted_cycle) == "[+2 +1 -3]"
    assert result.predicted_start == 0


def test_classify_size3_same_class_sum():
    # 1 + 3 = 4 but 1 and 3 share a 2-adic class
    result = classify([1, 3, 4])
    assert not result.forces
    assert not oracle_forces([1, 3, 4])


def test_classify_size3_no_sum():
    result = classify([2, 3, 7])
    assert not result.forces
    assert not oracle_forces([2, 3, 7])


def test_classify_size4_seven_cycle():
    result = classify([1, 3, 5, 8])
    assert result.forces and result.rule == "size4-bullet-4"
    assert result.labeling == {"a": 8, "x": 3, "y": 5, "z": 1}
    assert result.predicted_start == 48
    assert len(result.predicted_cycle) == 7


def test_classify_size4_five_cycle_two_even():
    result = classify([1, 2, 7, 10])
    assert result.forces and result.rule == "size4-bullet-2"
    assert format_pattern(result.predicted_cycle) == "[+2 -10 +2 +7 -1]"
    assert oracle_forces([1, 2, 7, 10])


def test_classify_size4_matches_oracle_spot():
    for s in ([1, 4, 6, 9], [2, 3, 7, 8], [1, 2, 4, 6], [3, 5, 7, 9], [1, 3, 9, 11]):
        assert classify(s).forces == oracle_forces(s), s


def test_classify_size4_unreduced_triple_inside_reduced_set():
    # {2,4,6} scaled from {1,2,3} forces even though no even+odd=odd triple exists
    result = classify([1, 2, 4, 6])
    assert result.forces and result.rule == "size4-bullet-1"
    assert result.labeling == {"a": 4, "b": 2, "c": 6}


def test_classify_dispatch():
    assert not classify([7]).forces
    assert not classify([4, 9]).forces
    scaled = classify([2, 4, 6])
    assert scaled.forces and scaled.rule == "size3"
    assert scaled.labeling == {"a": 4, "b": 2, "c": 6}
    assert format_pattern(scaled.predicted_cycle) == "[+4 +2 -6]"
    with pytest.raises(UnsupportedSizeError):
        classify([3, 9, 16, 18, 19, 20])


def test_one_validation_per_verdict(monkeypatch):
    # validation makes the decision, at the input's own scale: every cycle
    # tried is over the input's skips, and the verdict's cycle is one of them
    module = importlib.import_module("hapdisc.classify")
    calls = []
    validate = module.valid_odd_cycle

    def counted(sp):
        calls.append(sp)
        return validate(sp)

    monkeypatch.setattr(module, "valid_odd_cycle", counted)
    for values in ([2, 4, 6], [2, 6, 10, 16]):
        calls.clear()
        result = classify(values)
        assert result.forces
        assert calls and all(set(sp.skips) <= set(values) for sp in calls)
        assert result.predicted_cycle in calls


def test_predicted_cycles_validate_with_concrete_starts():
    rng = random.Random(23)
    seen_forcing = 0
    while seen_forcing < 40:
        size = rng.choice((3, 4))
        values = rng.sample(range(1, 25), size)
        result = classify(values)
        if not result.forces:
            continue
        seen_forcing += 1
        verdict = valid_odd_cycle(result.predicted_cycle)
        assert verdict.valid
        assert verdict.witness_start == result.predicted_start
        assert set(result.predicted_cycle.skips) <= set(values)
        walk = realize(result.predicted_cycle, result.predicted_start)
        assert not walk.parity_violations and walk.is_closed


def test_classification_scaling_invariance():
    rng = random.Random(40)
    for _ in range(120):
        size = rng.choice((3, 4))
        values = rng.sample(range(1, 21), size)
        base = classify(values)
        for d in (2, 3):
            scaled = classify([d * v for v in values])
            assert scaled.forces == base.forces
            assert scaled.rule == base.rule


def test_small_sweep_against_oracle_size3():
    for s in combinations(range(1, 16), 3):
        if math.gcd(*s) != 1:
            continue
        assert classify(s).forces == oracle_forces(s), s


def test_small_sweep_against_oracle_size4():
    for s in combinations(range(1, 13), 4):
        if math.gcd(*s) != 1:
            continue
        assert classify(s).forces == oracle_forces(s), s


def test_satisfied_bullets_diagnostic():
    result = classify([1, 3, 5, 8])
    assert result.satisfied_bullets == ("size4-bullet-4",)
    assert classify([3, 5, 7, 9]).satisfied_bullets == ()


def test_to_json_dict_shape(capsys):
    assert main(["classify", "-s", "1,2,3", "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["forces"] is True
    assert data["rule"] == "size3"
    assert data["cycle"] == {"pattern": "[+2 +1 -3]", "start": 0}
    assert main(["classify", "-s", "4,9", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"forces": False, "rule": "none", "labeling": None}


def test_golden_digest():
    # every verdict, rule, labeling, cycle, start and bullet list on the
    # 12 950 subsets of 1..24 with 1-4 elements
    sets = [s for k in range(1, 5) for s in combinations(range(1, 25), k)]
    text = "\n".join(repr(classify(s)) for s in sets)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "e456883d19426aee7f56b085f2855dfaeaae295bdcf49dd9b7be26e7e034d06a"
