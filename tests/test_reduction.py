import math
import tracemalloc
from collections import Counter
from itertools import combinations

import pytest

from hapdisc.pattern import SignedPattern
from hapdisc.realizability import weakly_realizable
from hapdisc.reduction import (
    BudgetExceeded,
    ESSInstance,
    ESSWitness,
    build_d1_instance,
    ess_solve,
    validate_witness,
    witness_cycle,
)
from hapdisc.search import _search

from oracles import cycle_witness


def test_instance_validation():
    for values, message in [
        ([], "instance must be nonempty"),
        ([2, 0, 1], "elements must be positive, got (0, 1, 2)"),
        ([2, 1, 2], "elements must be distinct, got (1, 2, 2)"),
    ]:
        with pytest.raises(ValueError) as err:
            ESSInstance.of(values)
        assert str(err.value) == message
    assert ESSInstance.of([3, 1, 2]).elements == (1, 2, 3)


def test_ess_solve_examples():
    inst = ESSInstance.of([1, 2, 3])
    witness = ess_solve(inst)
    assert witness is not None
    assert witness.values(inst) == ((1, 2), (3,))

    assert ess_solve(ESSInstance.of([1, 2])) is None

    inst = ESSInstance.of([2, 3, 5])
    assert ess_solve(inst).values(inst) == ((2, 3), (5,))


def test_ess_solve_budget():
    with pytest.raises(BudgetExceeded):
        ess_solve(ESSInstance.of(range(1, 30)))
    # no witness at any level: 24 powers of two stop at the level limit
    # before their index grows large, and 20 still answer
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            ess_solve(ESSInstance.of(2**i for i in range(24)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20
    assert ess_solve(ESSInstance.of(2**i for i in range(20))) is None
    # each level's index holds one subset per sum: 2.7 MB on 16 powers of
    # two, whose subset sums are all distinct
    tracemalloc.start()
    try:
        assert ess_solve(ESSInstance.of(2**i for i in range(16))) is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.1 * 2**20


def test_build_d1_instance_hand_checked():
    # n=2: M = 2 * (2-1) * (2*1+1)(2*2+1) = 30, threshold (1)(2*1+1)+1 = 4,
    # r = least multiple of 2 above 4 = 6
    ri = build_d1_instance(ESSInstance.of([1, 2]))
    assert ri.M == 30
    assert ri.r == 6
    assert ri.s == (241, 301)
    assert ri.t == 151
    for u, v in combinations(ri.skip_set, 2):
        assert math.gcd(u, v) == 1


def test_witness_cycle_shape_and_sum():
    inst = ESSInstance.of([1, 2, 3])
    ri = build_d1_instance(inst)
    witness = ess_solve(inst)
    cycle = witness_cycle(ri, witness)
    assert len(cycle) == 5
    assert cycle.signed_sum == 0
    s1, s2, s3 = ri.s
    assert cycle.steps == (
        (1, s1),
        (-1, s3),
        (1, s2),
        (-1, ri.t),
        (-1, ri.M),
    )


def test_witness_cycle_rejects_bad_witness():
    inst = ESSInstance.of([1, 2, 3])
    ri = build_d1_instance(inst)
    with pytest.raises(ValueError):
        witness_cycle(ri, ESSWitness((0, 1), (1,)))
    with pytest.raises(ValueError):
        witness_cycle(ri, ESSWitness((0, 2), (1,)))
    with pytest.raises(ValueError):  # 1 + 3 == 2 + 2, but Y repeats index 1
        witness_cycle(ri, ESSWitness((0, 2), (1, 1)))
    with pytest.raises(ValueError) as err:
        witness_cycle(ri, ESSWitness((0, 5), (1,)))
    assert str(err.value) == "witness indices out of range for n=3"


def step_counts(ri, cycle: SignedPattern) -> Counter:
    """Steps of a cycle over ri's skips counted by (sign, "t" | "M" | "s");
    a skip outside the constructed set raises KeyError."""
    kind = {ri.t: "t", ri.M: "M", **dict.fromkeys(ri.s, "s")}
    return Counter((sign, kind[skip]) for sign, skip in cycle.steps)


def test_audit_passes_on_witness_cycle():
    # one -t, one -M and one more +s step than -s steps: modulo n*M each
    # s_i is 1, t is 1 - M and M is M, so this is the only balance of a
    # zero signed sum over the constructed skips
    inst = ESSInstance.of([1, 2, 3])
    ri = build_d1_instance(inst)
    cycle = witness_cycle(ri, ess_solve(inst))
    assert step_counts(ri, cycle) == {(-1, "t"): 1, (-1, "M"): 1, (1, "s"): 2, (-1, "s"): 1}


def test_forward_direction_small_sweep():
    # every witness over tiny instances yields an odd, zero-sum, weakly
    # realizable cycle over pairwise coprime skips
    for values in ([1, 2, 3], [2, 3, 5], [1, 3, 4], [1, 2, 3, 4], [2, 5, 7, 9]):
        inst = ESSInstance.of(values)
        witness = ess_solve(inst)
        if witness is None:
            continue
        ri = build_d1_instance(inst)
        cycle = witness_cycle(ri, witness)
        assert len(cycle) % 2 == 1
        assert cycle.signed_sum == 0
        assert weakly_realizable(cycle).status == "weakly-realizable"
        k = len(witness.y_indices)
        counts = {(-1, "t"): 1, (-1, "M"): 1, (1, "s"): k + 1, (-1, "s"): k}
        assert step_counts(ri, cycle) == counts
        assert ri.M % 2 == 0
        assert all(x % 2 == 1 for x in ri.s) and ri.t % 2 == 1


def exact_cycle_decides(values) -> int:
    """Decide the ESS instance ``values`` by the cycle search on its
    transformed set, and return the cap that made the search exact.

    The cap grows 3, 5, 7, ... until no prune that depends on it fires,
    so a "none" proves that no odd cycle exists.  The search must find a
    cycle just when ``ess_solve`` finds a witness, and each cycle must
    map back to a valid witness."""
    inst = ESSInstance.of(values)
    ri = build_d1_instance(inst)
    for cap in range(3, 32, 2):
        found, truncated = _search(ri.skip_set, cap, cycles=True)
        if not truncated:
            break
    else:
        pytest.fail(f"{values}: the cycle search is still capped at {cap}")
    assert (found is not None) == (ess_solve(inst) is not None), values
    if found is not None:
        validate_witness(inst, cycle_witness(ri.s, ri.t, found.signed))
    return cap


def test_backward_direction_small_sweep():
    # the paper's hardness theorem both ways on every instance of 3-4
    # elements from 1..9: an odd cycle exactly when a witness exists
    caps = [exact_cycle_decides(values) for size in (3, 4) for values in combinations(range(1, 10), size)]
    assert (len(caps), max(caps)) == (210, 11)
