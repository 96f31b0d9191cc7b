"""Closed-form decision procedures for skip sets of size at most 4.

The paper decides these sizes with a short list of odd cycles: a set
forces discrepancy two exactly when one of them occurs in its graph.
Sizes 1 and 2 never force.  A 3-set forces exactly when it holds the
triangle [+a +b -c].  A 4-set forces exactly when one of four cycles
occurs:

1. the triangle [+a +b -c], the 3-set test on some triple;
2. the 5-cycle [+b -a +b +y -x];
3. the 5-cycle [-a +x -y +x -z], or its mirror [+a +x -y +x -z];
4. the 7-cycle [+a +z -x +z -y +z -x].

A rule fires when some labeling of its cycle by the set's elements is a
valid odd cycle (``realizability.valid_odd_cycle``), so the verdict is
its own certificate and the cycle runs in the input's own graph.  The
first rule that fires names the verdict.  ``tests/test_properties.py``
checks each rule against the paper's literal conditions
(``tests/oracles.paper_conditions``), and ``tests/test_classify.py`` pins
every verdict on the subsets of 1..24 by digest.
"""

from __future__ import annotations

from itertools import permutations
from operator import mul
from typing import Iterable, NamedTuple

from .pattern import SignedPattern, sorted_skips
from .realizability import valid_odd_cycle

RULE_NONE = "none"
RULE_SIZE3 = "size3"
RULE_BULLETS = (
    "size4-bullet-1",
    "size4-bullet-2",
    "size4-bullet-3",
    "size4-bullet-4",
)


class UnsupportedSizeError(ValueError):
    def __init__(self, size: int):
        super().__init__(
            f"closed-form classification covers sizes 1-4, got {size}; "
            "use the skip-graph block solver (solve_block / hapdisc color) instead"
        )
        self.size = size


class Classification(NamedTuple):
    forces: bool
    rule: str
    labeling: dict[str, int] | None = None
    predicted_cycle: SignedPattern | None = None
    predicted_start: int | None = None
    satisfied_bullets: tuple[str, ...] = ()


def _rule(order: str, *cycles: str) -> tuple[str, tuple]:
    """A rule's label order and its cycle variants, each as the linear
    form of its signed sum over that order and its (sign, label) steps."""
    variants = []
    for text in cycles:
        steps = tuple((1 if token[0] == "+" else -1, token[1]) for token in text.split())
        form = tuple(sum(sign for sign, name in steps if name == label) for label in order)
        variants.append((form, steps))
    return order, tuple(variants)


# The paper's odd cycles by set size, tried in order; a 3-set's triangle
# is the 4-set's first condition, and sizes 1 and 2 have none.  Labels
# take the set's elements in the order given: a 4-set has at most one
# pair summing to a given c, so the triangle labels c first.
_TRIANGLE = _rule("cab", "+a +b -c")
_RULES = {
    3: ((RULE_SIZE3, _TRIANGLE),),
    4: tuple(
        zip(
            RULE_BULLETS,
            (
                _TRIANGLE,
                _rule("abxy", "+b -a +b +y -x"),
                _rule("axyz", "-a +x -y +x -z", "+a +x -y +x -z"),
                _rule("axyz", "+a +z -x +z -y +z -x"),
            ),
        )
    ),
}


def _first_cycle(elements: tuple[int, ...], order: str, variants: tuple):
    """The first labeling of ``elements`` (sorted permutations, each
    variant in turn) whose cycle is a valid odd cycle, as (labeling,
    cycle, least start), or None."""
    for values in permutations(elements, len(order)):
        for form, steps in variants:
            if sum(map(mul, form, values)):
                continue
            labeling = dict(zip(order, values))
            cycle = SignedPattern(tuple((sign, labeling[name]) for sign, name in steps))
            verdict = valid_odd_cycle(cycle)
            if verdict.valid:
                return dict(sorted(labeling.items())), cycle, verdict.witness_start
    return None


def classify(values: Iterable[int]) -> Classification:
    """Decide whether a skip set of size at most 4 forces discrepancy two.

    The first rule whose cycle has a valid labeling over the input's own
    skips names the verdict, its labeling, its cycle and the cycle's least
    start.  Every satisfied 4-set condition is reported in
    ``satisfied_bullets``.
    """
    elements = sorted_skips(values)
    if len(elements) > 4:
        raise UnsupportedSizeError(len(elements))
    hits = [
        (rule, hit)
        for rule, (order, variants) in _RULES.get(len(elements), ())
        if (hit := _first_cycle(elements, order, variants))
    ]
    if not hits:
        return Classification(False, RULE_NONE)
    rule, (labeling, cycle, start) = hits[0]
    satisfied = tuple(rule for rule, _ in hits if rule in RULE_BULLETS)
    return Classification(True, rule, labeling, cycle, start, satisfied)
