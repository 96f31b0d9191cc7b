"""The contract of hapdisc's fifteen result and input records: each
one's exact repr, that its fields cannot be assigned, and that the two
pattern types count their steps.  Their input checks' messages are
pinned by ``test_pattern.test_construction_errors`` and
``test_reduction.test_instance_validation``."""

import pytest

from hapdisc import (
    Coloring,
    ESSInstance,
    Pattern,
    SignedPattern,
    build_d1_instance,
    build_graph,
    check_subpath,
    classify,
    ess_solve,
    longest_path,
    parse_pattern,
    realize,
    rule_scan,
    solve_block,
    strict_realizability,
    valid_odd_cycle,
)

STEPS = ((1, 2), (1, 1), (-1, 3))
SIGNED = "SignedPattern(steps=((1, 2), (1, 1), (-1, 3)))"

# (factory of one instance, its repr, a field to assign)
RECORDS = [
    (lambda: Pattern((2, 1, 3)), "Pattern(skips=(2, 1, 3))", "skips"),
    (lambda: SignedPattern(STEPS), SIGNED, "steps"),
    (
        lambda: realize(parse_pattern("[2 1 3]"), 0),
        f"Realization(pattern={SIGNED}, start=0, terms=(0, 2, 3, 0), parity_violations=())",
        "start",
    ),
    (
        lambda: check_subpath(SignedPattern(STEPS), 0, 2),
        "SubpathReport(i=0, j=2, intermediate_sum=1, gcd=1, divisibility_ok=True, parity_ok=True)",
        "gcd",
    ),
    (
        lambda: strict_realizability(parse_pattern("[5 1 10]")),
        "RealizabilityVerdict(status='forbidden', witness_start=None, failure=SubpathReport("
        "i=0, j=2, intermediate_sum=None, gcd=None, divisibility_ok=False, parity_ok=False), signed=None)",
        "status",
    ),
    (
        lambda: valid_odd_cycle(SignedPattern(STEPS)),
        "CycleVerdict(valid=True, signed_sum=0, witness_start=0, reason=None)",
        "valid",
    ),
    (
        lambda: classify((1, 2, 3)),
        "Classification(forces=True, rule='size3', labeling={'a': 2, 'b': 1, 'c': 3}, "
        f"predicted_cycle={SIGNED}, predicted_start=0, satisfied_bullets=())",
        "forces",
    ),
    (lambda: build_graph((2, 3)), "SkipGraph(skips=(2, 3), period=12)", "period"),
    (
        lambda: Coloring.from_values([1, -1, -1, 1]),
        "Coloring(signs=bytearray(b'\\x01\\xff\\xff\\x01'))",
        "signs",
    ),
    (
        lambda: solve_block(build_graph((1, 2, 3))),
        f"OddCycleCertificate(signed_pattern={SIGNED}, start=0)",
        "start",
    ),
    (
        lambda: rule_scan(parse_pattern("[5 1 10]")),
        "RuleVerdict(forbidden=True, rule_id='GCD-span', span=(0, 2))",
        "span",
    ),
    (
        lambda: longest_path((1, 5, 7), 7),
        "SearchResult(kind='path', length=7, start=11, pattern=Pattern(skips=(1, 5, 1, 7, 1, 5, 1)), "
        "signed=SignedPattern(steps=((-1, 1), (1, 5), (-1, 1), (1, 7), (-1, 1), (1, 5), (-1, 1))), "
        "lower_bound=True)",
        "length",
    ),
    (lambda: ESSInstance.of((3, 1, 2)), "ESSInstance(elements=(1, 2, 3))", "elements"),
    (
        lambda: ess_solve(ESSInstance.of((1, 2, 3))),
        "ESSWitness(x_indices=(0, 1), y_indices=(2,))",
        "x_indices",
    ),
    (
        lambda: build_d1_instance(ESSInstance.of((1, 2, 3))),
        "ReductionInstance(source=ESSInstance(elements=(1, 2, 3)), M=1680, r=12, "
        "s=(25201, 30241, 35281), t=18481)",
        "M",
    ),
]


@pytest.mark.parametrize(
    "make, text, name", RECORDS, ids=[text[: text.index("(")] for _, text, _ in RECORDS]
)
def test_record_repr_and_immutability(make, text, name):
    record = make()
    assert repr(record) == text
    assert record == make()
    value = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    assert getattr(record, name) is value


def test_pattern_lengths_count_steps():
    assert len(Pattern((2, 1, 3))) == 3
    assert len(SignedPattern(STEPS)) == 3
    assert len(SignedPattern(STEPS).unsigned()) == 3
    assert len(Pattern((7,))) == len(SignedPattern(((-1, 7),))) == 1

