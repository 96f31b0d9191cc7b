"""Closed-form decision procedures for skip sets of size at most 4.

Scaling every skip by a common factor changes nothing, so `classify`
divides the set by its gcd and runs one table of the paper's cycle
conditions on the reduced set.  Sizes 1 and 2 never force discrepancy
two.  A 3-set forces exactly when its two smaller elements sum to the
largest and occupy different 2-adic classes (a triangle).  A 4-set forces
exactly when one of four conditions holds, each naming the odd cycle it
yields:

1. some triple p + q = r with p, q in different 2-adic classes
   (a 3-cycle, the 3-set test; the triple need not be reduced on its own);
2. two even skips a, b in the same 2-adic class and two odd skips x, y
   with b | a, gcd(a, x) | b, gcd(a, y) | b and a = 2b + y - x
   (the 5-cycle [+b -a +b +y -x]);
3. one even skip a and odd skips x, y, z with x | y, gcd(y, z) | x,
   gcd(a, y) | x and a = +-(2x - y - z)
   (the 5-cycle [-a +x -y +x -z], sign-mirrored for the minus case);
4. 1 in the set and labels a even, x, y odd with a = 2x + y - 3,
   x | a + 1 and gcd(a, y) = 1
   (the 7-cycle [+a +1 -x +1 -y +1 -x]).

The first condition that holds names the verdict.  Its predicted cycle is
scaled back to the input's own skips and validated once there, which
also yields its start term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, permutations
from typing import Iterable

from .numeric import two_adic_valuation
from .pattern import SignedPattern, format_pattern, sorted_skips
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


@dataclass
class Classification:
    forces: bool
    rule: str
    labeling: dict[str, int] | None = None
    predicted_cycle: SignedPattern | None = None
    predicted_start: int | None = None
    satisfied_bullets: tuple[str, ...] = field(default=())

    def to_json_dict(self) -> dict:
        out: dict = {
            "forces": self.forces,
            "rule": self.rule,
            "labeling": self.labeling,
        }
        if self.predicted_cycle is not None:
            out["cycle"] = {
                "pattern": format_pattern(self.predicted_cycle),
                "start": self.predicted_start,
            }
        if self.satisfied_bullets:
            out["satisfied_bullets"] = list(self.satisfied_bullets)
        return out


def _three_cycle_triple(elements: tuple[int, ...]) -> tuple[dict[str, int], list] | None:
    """First triple p + q = r with p and q in different 2-adic classes."""
    for c in elements:
        for p, q in combinations([e for e in elements if e < c], 2):
            if p + q != c:
                continue
            vp, vq = two_adic_valuation(p), two_adic_valuation(q)
            if vp == vq:
                continue
            hi, lo = (p, q) if vp > vq else (q, p)
            return {"a": hi, "b": lo, "c": c}, [(1, hi), (1, lo), (-1, c)]
    return None


def _five_cycle_two_even(elements: tuple[int, ...]) -> tuple[dict[str, int], list] | None:
    evens = [e for e in elements if e % 2 == 0]
    odds = [e for e in elements if e % 2]
    if len(evens) != 2 or len(odds) != 2:
        return None
    if two_adic_valuation(evens[0]) != two_adic_valuation(evens[1]):
        return None
    for a, b in permutations(evens, 2):
        if a % b:
            continue
        for x, y in permutations(odds, 2):
            if a != 2 * b + y - x:
                continue
            if b % math.gcd(a, x) or b % math.gcd(a, y):
                continue
            labeling = {"a": a, "b": b, "x": x, "y": y}
            return labeling, [(1, b), (-1, a), (1, b), (1, y), (-1, x)]
    return None


def _five_cycle_one_even(elements: tuple[int, ...]) -> tuple[dict[str, int], list] | None:
    evens = [e for e in elements if e % 2 == 0]
    odds = [e for e in elements if e % 2]
    if len(evens) != 1 or len(odds) != 3:
        return None
    a = evens[0]
    for x, y, z in permutations(odds, 3):
        if y % x:
            continue
        if x % math.gcd(y, z) or x % math.gcd(a, y):
            continue
        d = 2 * x - y - z
        if d == a:
            first = (-1, a)
        elif d == -a:
            first = (1, a)
        else:
            continue
        labeling = {"a": a, "x": x, "y": y, "z": z}
        return labeling, [first, (1, x), (-1, y), (1, x), (-1, z)]
    return None


def _seven_cycle(elements: tuple[int, ...]) -> tuple[dict[str, int], list] | None:
    if 1 not in elements:
        return None
    rest = [e for e in elements if e != 1]
    for a, x, y in permutations(rest, 3):
        if a % 2 or x % 2 == 0 or y % 2 == 0:
            continue
        if a != 2 * x + y - 3:
            continue
        if (a + 1) % x or math.gcd(a, y) != 1:
            continue
        labeling = {"a": a, "x": x, "y": y, "z": 1}
        steps = [(1, a), (1, 1), (-1, x), (1, 1), (-1, y), (1, 1), (-1, x)]
        return labeling, steps
    return None


# The paper's cycle conditions by set size, tested in order on the
# gcd-reduced set; a 3-set's triangle is the 4-set's first condition, and
# sizes 1 and 2 have none.
_RULES = {
    3: ((RULE_SIZE3, _three_cycle_triple),),
    4: tuple(
        zip(RULE_BULLETS, (_three_cycle_triple, _five_cycle_two_even, _five_cycle_one_even, _seven_cycle))
    ),
}


def classify(values: Iterable[int]) -> Classification:
    """Decide whether a skip set of size at most 4 forces discrepancy two.

    The rules run on the set divided by its gcd g; the first hit's cycle
    and labeling are scaled back by g, so the witness cycle runs in the
    input set's own graph, and that cycle is validated once.  Every
    satisfied 4-set condition is reported in ``satisfied_bullets``.
    """
    elements = sorted_skips(values)
    if len(elements) > 4:
        raise UnsupportedSizeError(len(elements))
    g = math.gcd(*elements)
    reduced = tuple(e // g for e in elements)
    hits = [(rule, hit) for rule, check in _RULES.get(len(reduced), ()) if (hit := check(reduced))]
    if not hits:
        return Classification(False, RULE_NONE)
    rule, (labeling, steps) = hits[0]
    cycle = SignedPattern(steps).scaled(g)
    verdict = valid_odd_cycle(cycle)
    if not verdict.valid:
        raise RuntimeError(f"predicted cycle failed validation: {cycle.steps} ({verdict.reason})")
    assert verdict.witness_start is not None
    labeling = {k: v * g for k, v in labeling.items()}
    satisfied = tuple(rule for rule, _ in hits if rule in RULE_BULLETS)
    return Classification(True, rule, labeling, cycle, verdict.witness_start, satisfied)
