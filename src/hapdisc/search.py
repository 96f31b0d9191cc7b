"""Forbidden-pattern rule engine and pruned search for extremal paths
and odd cycles over a skip set.

The rule engine rejects skip sequences that can never be traced without
repeats, using local window shapes: an immediately repeated skip, the
[a b a] window with a not dividing b, [a b a b], a window [a b c a] whose
outer skip exceeds both inner ones, any three pairs packed into six
consecutive steps, the seven-step shape [b a c a b a c], odd runs of odd
skips fenced by even skips, span gcd obstructions, and the sign rules on
adjacent steps.  These are necessary conditions only; surviving every
rule does not certify realizability.

The depth-first search enumerates signed extensions and prunes by
congruence, freshness and distance only: a single incrementally merged
start-term congruence, which decides weak realizability of the whole
prefix, term freshness, and for cycles the distance still to cover back
to the start.  A node carries its congruence as two ints, and each
skip a has one cached step row per modulus (``_step_row``): g =
gcd(modulus, 2a), whether g divides a, and the step and inverse of the
merge.  One exact residue test modulo g gates both signs (both can pass
only when g divides a), and a sign that passes merges by plain integer
arithmetic, as in ``realizability._signings``.  Once 2a divides the modulus, as it does
for every skip once the modulus reaches the period 2 * lcm(skips), the
merge is the identity.  It runs none of the window rules, which can only
cut what these checks cut already (see ``_search``).  Every surviving node is therefore a
realizable path; cycle candidates additionally need an odd length and a
zero signed sum.  Among maximum-length candidates the result is the one
with the least witness start, then the first in walk order
(``pattern._walk_order``: signs with + before -, then skips).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .pattern import AnyPattern, Pattern, SignedPattern, _walk_order, sorted_skips
from .realizability import (
    REALIZABLE,
    _sign_free_divisibility_failure,
    _signings,
    _step_row,
    _subpath_reports,
    check_subpath,
    strict_realizability,
    valid_odd_cycle,
)


@dataclass(frozen=True)
class RuleVerdict:
    forbidden: bool
    rule_id: str | None = None
    span: tuple[int, int] | None = None  # inclusive step-index range


@dataclass(frozen=True)
class SearchResult:
    kind: str  # "path" or "odd-cycle"
    length: int
    start: int
    pattern: Pattern
    signed: SignedPattern
    lower_bound: bool = False


def _window(width: int, match):
    """Scan for the first k whose ``width`` consecutive skips from k
    satisfy ``match``; return the span (k, k + width - 1)."""

    def scan(p):
        skips = p.skips
        for k in range(len(skips) - width + 1):
            if match(*skips[k : k + width]):
                return k, k + width - 1
        return None

    return scan


def _odd_blocks(p):
    """Two consecutive even skips fencing an odd number of odd skips."""
    evens = [k for k, s in enumerate(p.skips) if s % 2 == 0]
    for i, j in zip(evens, evens[1:]):
        if (j - i - 1) % 2:
            return i, j
    return None


def _adjacent_parity(same_sign: bool):
    """Adjacent steps failing the parity condition, with agreeing signs
    (PLUS-PLUS) or opposite ones (CLASS-SIGN)."""

    def scan(p):
        signs = p.signs
        for k in range(len(signs) - 1):
            if (signs[k] == signs[k + 1]) != same_sign:
                continue
            if not check_subpath(p, k, k + 1).parity_ok:
                return k, k + 1
        return None

    return scan


def _gcd_span(p):
    # A weakly realizable signing passes divisibility on every span, so
    # the span scan (O(n^2) signed, exponential sign-free) runs only when
    # the O(n) signing walk finds none.
    if next(_signings(p), None) is not None:
        return None
    if isinstance(p, Pattern):
        failure = _sign_free_divisibility_failure(p)
    else:
        failure = next((r for r in _subpath_reports(p) if not r.divisibility_ok), None)
    return None if failure is None else (failure.i, failure.j)


def _three_pairs(*w: int) -> bool:
    return len(set(w)) == 3 and all(w.count(x) == 2 for x in w)


def _bacabac(b: int, a: int, c: int, a2: int, b2: int, a3: int, c2: int) -> bool:
    return b == b2 and a == a2 == a3 and c == c2 and len({a, b, c}) == 3


_ANY = (Pattern, SignedPattern)

# Every rule once, in report order: (rule id, patterns it applies to,
# scan).  Each scan returns the span of its first match by ascending k.
_RULES = (
    ("AA", _ANY, _window(2, lambda a, b: a == b)),
    ("ABAB", _ANY, _window(4, lambda a, b, c, d: a == c and b == d)),
    ("ABA-div", _ANY, _window(3, lambda a, b, c: a == c and b % a)),
    ("ABCA", _ANY, _window(4, lambda a, b, c, d: a == d and a > b and a > c)),
    ("AABBCC", _ANY, _window(6, _three_pairs)),
    ("BACABAC", _ANY, _window(7, _bacabac)),
    ("ODD-BLOCKS", _ANY, _odd_blocks),
    ("PLUS-PLUS", SignedPattern, _adjacent_parity(same_sign=True)),
    ("CLASS-SIGN", SignedPattern, _adjacent_parity(same_sign=False)),
    ("GCD-span", _ANY, _gcd_span),
)


def rule_scan(p: AnyPattern) -> RuleVerdict:
    """First forbidden-shape match, or a clean verdict.

    The shape rules run on any input; the sign rules and the exact span
    sums need a signed pattern.  Rules are checked in table order with
    the cheap local shapes first, so overlapping matches report the most
    specific rule (for example an odd inner block of odd skips is also a
    gcd-span obstruction, but reports as ODD-BLOCKS).
    """
    for rule_id, applies_to, scan in _RULES:
        if isinstance(p, applies_to):
            span = scan(p)
            if span is not None:
                return RuleVerdict(True, rule_id, span)
    return RuleVerdict(False)


def _search(skips: Iterable[int], max_len: int, cycles: bool):
    skip_list = sorted_skips(skips)
    if max_len < 1:
        raise ValueError(f"max_len must be positive, got {max_len}")
    max_skip = skip_list[-1]

    best: tuple | None = None
    best_len = 0
    truncated = False
    steps: list[tuple[int, int]] = []
    seen = {0}
    # per modulus, each skip a with its step row (``_step_row``), the
    # modulus its merge leaves and -a mod g (moduli divide 2 * lcm(skips))
    gates: dict[int, tuple[tuple[int, ...], ...]] = {}

    def consider(length: int, start: int, closing: tuple[int, int] | None) -> None:
        # called only when length >= best_len, so only the tie-break is left
        nonlocal best, best_len
        all_steps = steps + [closing] if closing else steps
        key = (-length, start, *_walk_order(all_steps))
        if best is None or key < best:
            best = key + (tuple(all_steps),)
            best_len = length

    def recurse(base: int, residue: int, modulus: int, depth: int) -> None:
        nonlocal truncated
        if depth == max_len:
            truncated = True
            return
        gate = gates.get(modulus)
        if gate is None:
            rows = [(a, _step_row(modulus, a)) for a in skip_list]
            gate = gates[modulus] = tuple((a, *row, modulus * row[2], -a % row[0]) for a, row in rows)
        offset = -base - residue
        for a, g, both, step, inv, child, neg in gate:
            # The step (sign, a) from ``base`` has residue -base (+a when
            # down), so +a merges iff d == 0 and -a iff d == -a (mod g).
            d = offset % g
            if d == 0:
                signs = (1, -1) if both else (1,)
            elif d == neg:
                signs = (-1,)
            else:
                continue
            for sign in signs:
                # No window rule runs here.  Every node is a strictly
                # realizable prefix (one merge, no repeated term or arc),
                # and the rules are necessary conditions for that.  On the
                # step that closes a cycle, a window narrower than the
                # cycle is a proper subpath; ODD-BLOCKS counts parities,
                # so it holds on closed walks too.  The windows as wide as
                # an odd cycle are ABA-div on three steps, which no
                # zero-sum [a b a] fires (it needs b = 2a), and BACABAC on
                # seven, which shapes no valid cycle (all 17 540 zero-sum
                # signings with distinct skips up to 30 fail
                # valid_odd_cycle).
                new_sum = base + sign * a
                if cycles and new_sum < 0:
                    continue  # rotations from the minimum vertex suffice
                closes = new_sum in seen
                if closes:
                    # ``seen`` keeps every term fresh, so no arc repeats:
                    # the closing arc {base, 0} could only retrace the
                    # first arc, and that needs depth 1.
                    if not (cycles and new_sum == 0 and depth >= 2 and depth % 2 == 0):
                        continue
                elif cycles and abs(new_sum) > (max_len - depth - 1) * max_skip:
                    continue
                merged = residue  # the step row's merge is the identity when step == 1
                if step > 1:
                    merged += modulus * ((offset if sign > 0 else offset + a) // g * inv % step)
                if closes:
                    if depth + 1 >= best_len:
                        consider(depth + 1, merged, (sign, a))
                    continue
                steps.append((sign, a))
                seen.add(new_sum)
                if not cycles and depth + 1 >= best_len:
                    consider(depth + 1, merged, None)
                recurse(new_sum, merged, child, depth + 1)
                seen.discard(new_sum)
                steps.pop()

    recurse(0, 0, 1, 0)
    if best is None:
        return None, truncated
    neg_len, start, _, _, found = best
    return (SignedPattern(found), -neg_len, start), truncated


def longest_path(skips: Iterable[int], max_len: int = 64) -> SearchResult:
    """Longest realizable path over the skip set, up to ``max_len``.

    When the depth cap cuts off unexplored branches the result is flagged
    as a lower bound.
    """
    found, truncated = _search(skips, max_len, cycles=False)
    assert found is not None  # every single skip realizes as a path
    sp, length, start = found
    verdict = strict_realizability(sp)
    if verdict.status != REALIZABLE or verdict.witness_start != start:
        raise RuntimeError(f"search produced an invalid path: {sp.steps}")
    return SearchResult("path", length, start, sp.unsigned(), sp, truncated)


def longest_odd_cycle(skips: Iterable[int], max_len: int = 64) -> SearchResult | None:
    """Longest odd cycle over the skip set, or None when none exists
    within the depth cap."""
    found, truncated = _search(skips, max_len, cycles=True)
    if found is None:
        return None
    sp, length, start = found
    verdict = valid_odd_cycle(sp)
    if not verdict.valid or verdict.witness_start != start:
        raise RuntimeError(f"search produced an invalid cycle: {sp.steps}")
    return SearchResult("odd-cycle", length, start, sp.unsigned(), sp, truncated)
