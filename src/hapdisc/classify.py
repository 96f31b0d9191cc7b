"""Closed-form decision procedures for skip sets of size at most 4.

Scaling every skip by a common factor changes nothing, so sets are
reduced to gcd 1 first.  Sizes 1 and 2 never force discrepancy two.  A
3-set forces exactly when its two smaller elements sum to the largest
and occupy different 2-adic classes (a triangle).  A 4-set forces exactly
when one of four conditions holds, each naming the odd cycle it yields:

1. some triple p + q = r with p, q in different 2-adic classes
   (a 3-cycle; the triple need not be reduced on its own);
2. two even skips a, b in the same 2-adic class and two odd skips x, y
   with b | a, gcd(a, x) | b, gcd(a, y) | b and a = 2b + y - x
   (the 5-cycle [+b -a +b +y -x]);
3. one even skip a and odd skips x, y, z with x | y, gcd(y, z) | x,
   gcd(a, y) | x and a = +-(2x - y - z)
   (the 5-cycle [-a +x -y +x -z], sign-mirrored for the minus case);
4. 1 in the set and labels a even, x, y odd with a = 2x + y - 3,
   x | a + 1 and gcd(a, y) = 1
   (the 7-cycle [+a +1 -x +1 -y +1 -x]).

Every positive verdict ships a predicted cycle that is validated before
being returned, with its start term from the congruence solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, permutations
from typing import Iterable, Union

from .numeric import two_adic_valuation
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


@dataclass(frozen=True)
class SkipSet:
    """A finite set of distinct positive skip sizes with its gcd."""

    elements: tuple[int, ...]
    reduction_factor: int

    @classmethod
    def of(cls, values: Iterable[int]) -> "SkipSet":
        elems = sorted_skips(values)
        return cls(elems, math.gcd(*elems))

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def is_reduced(self) -> bool:
        return self.reduction_factor == 1

    def reduced(self) -> "SkipSet":
        f = self.reduction_factor
        return SkipSet.of(e // f for e in self.elements)


SkipSetLike = Union[SkipSet, Iterable[int]]


def _as_skip_set(s: SkipSetLike) -> SkipSet:
    return s if isinstance(s, SkipSet) else SkipSet.of(s)


def reduce_set(s: SkipSetLike) -> tuple[SkipSet, int]:
    """Divide out the gcd; classification is invariant under this."""
    ss = _as_skip_set(s)
    return ss.reduced(), ss.reduction_factor


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
            from .pattern import format_pattern

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


_BULLET_CHECKS = (
    _three_cycle_triple,
    _five_cycle_two_even,
    _five_cycle_one_even,
    _seven_cycle,
)


def _validated(steps: list, scale: int) -> tuple[SignedPattern, int]:
    sp = SignedPattern(tuple((sign, scale * skip) for sign, skip in steps))
    verdict = valid_odd_cycle(sp)
    if not verdict.valid:
        raise RuntimeError(f"predicted cycle failed validation: {sp.steps} ({verdict.reason})")
    assert verdict.witness_start is not None
    return sp, verdict.witness_start


def classify_size3(s: SkipSetLike) -> Classification:
    """Decide a reduced 3-set: forces iff a + b = c with a, b in
    different 2-adic classes, in which case the witness is a 3-cycle."""
    ss = _as_skip_set(s)
    if ss.size != 3:
        raise ValueError(f"classify_size3 needs exactly 3 elements, got {ss.size}")
    if not ss.is_reduced:
        raise ValueError(f"classify_size3 expects a reduced set, gcd is {ss.reduction_factor}")
    hit = _three_cycle_triple(ss.elements)
    if hit is None:
        return Classification(False, RULE_NONE)
    labeling, steps = hit
    cycle, start = _validated(steps, 1)
    return Classification(True, RULE_SIZE3, labeling, cycle, start)


def classify_size4(s: SkipSetLike) -> Classification:
    """Decide a reduced 4-set by testing the four cycle conditions in
    order, shortest predicted cycle first; all satisfied conditions are
    reported for diagnostics."""
    ss = _as_skip_set(s)
    if ss.size != 4:
        raise ValueError(f"classify_size4 needs exactly 4 elements, got {ss.size}")
    if not ss.is_reduced:
        raise ValueError(f"classify_size4 expects a reduced set, gcd is {ss.reduction_factor}")
    hits = [(rule, check(ss.elements)) for rule, check in zip(RULE_BULLETS, _BULLET_CHECKS)]
    satisfied = tuple(rule for rule, hit in hits if hit is not None)
    for rule, hit in hits:
        if hit is None:
            continue
        labeling, steps = hit
        cycle, start = _validated(steps, 1)
        return Classification(True, rule, labeling, cycle, start, satisfied)
    return Classification(False, RULE_NONE, satisfied_bullets=satisfied)


def classify(s: SkipSetLike) -> Classification:
    """Full dispatch for |S| <= 4, reducing by the gcd first.

    The returned labeling and cycle are scaled back to the original
    elements, so the witness cycle runs in the input set's own graph.
    """
    ss = _as_skip_set(s)
    if ss.size > 4:
        raise UnsupportedSizeError(ss.size)
    if ss.size <= 2:
        return Classification(False, RULE_NONE)
    reduced, factor = reduce_set(ss)
    if reduced.size == 3:
        base = classify_size3(reduced)
    else:
        base = classify_size4(reduced)
    if not base.forces or factor == 1:
        return base
    labeling = {k: v * factor for k, v in (base.labeling or {}).items()}
    assert base.predicted_cycle is not None
    steps = list(base.predicted_cycle.steps)
    cycle, start = _validated(steps, factor)
    return Classification(True, base.rule, labeling, cycle, start, base.satisfied_bullets)
