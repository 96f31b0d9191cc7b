"""Forbidden-pattern rule engine and pruned search for extremal paths
and odd cycles over a skip set.

The rule engine rejects skip sequences that can never be traced without
repeats, using local window shapes: an immediately repeated skip, the
[a b a] window with a not dividing b, [a b a b], a window [a b c a] whose
outer skip exceeds both inner ones, any three pairs packed into six
consecutive steps, the seven-step shape [b a c a b a c], odd runs of odd
skips fenced by even skips, the sign rules on adjacent steps, and last
the span obstruction: the minimal window of steps that no signing fits,
ending where the signing walk dies, for either kind of pattern.  These are
necessary conditions only; surviving every rule does not certify
realizability.

The depth-first search enumerates signed extensions and prunes by
congruence, freshness and distance only: a single incrementally merged
start-term congruence, which decides weak realizability of the whole
prefix, term freshness (``realizability._repeats_a_term``'s rule, applied
step by step to the partial sums in ``seen``), and for cycles the distance
still to cover back to the start.  A node carries its congruence as two
ints (residue, modulus) and stands on the term w = residue + base.  One
rule admits a step, as in ``realizability._signings``: it merges iff w is
its shift (0 for +a, a for -a) mod g = gcd(modulus, 2a) (``_step_row``).
As g divides the modulus, that holds iff d = gcd(w, modulus) is the shift
mod g (``_moves``), so one gcd per node looks the steps up in a table
keyed by (modulus, d), from the moves built once per modulus (``_gate``).
Both depend on the skips alone, so those of the last skip set searched
are kept for the next search on it, of either kind and any cap
(``_tables``).  A step merges by plain integer arithmetic only
while its step 2a / g exceeds 1: from the period 2 * lcm(skips) on,
the start is one residue, w is a concrete vertex and every merge is the
identity.  It runs none of the window rules, which can only cut what these
checks cut already (see ``_search``).  Every surviving node is therefore a
realizable path; cycle candidates additionally need an odd length and a
zero signed sum.  Among maximum-length candidates the result is the one
with the least witness start, then the first in walk order
(``pattern._walk_order``: signs with + before -, then skips).  The result
is flagged as a lower bound whenever a prune that depends on the cap
fires: a node at the cap, or a cycle branch too far from its start to
close within it.
"""

from __future__ import annotations

import collections
import functools
import math
from typing import Iterable, NamedTuple

from .pattern import AnyPattern, Pattern, SignedPattern, _walk_order, sorted_skips
from .realizability import (
    REALIZABLE,
    _obstruction,
    _signings,
    _step_row,
    check_subpath,
    strict_realizability,
    valid_odd_cycle,
)


class RuleVerdict(NamedTuple):
    forbidden: bool
    rule_id: str | None = None
    span: tuple[int, int] | None = None  # inclusive step-index range


class SearchResult(NamedTuple):
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
    # The O(n) signing walk decides; a pattern with no signing reports the
    # (i, j) of the minimal window where the walk died, as
    # ``strict_realizability`` does.
    signings, k = _signings(p)
    return None if signings else _obstruction(p, k)[:2]


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


def _gate(modulus: int, skips: tuple[int, ...]) -> tuple[tuple, ...]:
    """The moves of a start congruence modulo ``modulus``, in walk order
    (skips ascending, + before -), each as (g, r, move): g of its step row
    (``_step_row``) and r its shift (0 for +a, a for -a) mod g.  A move is
    ((sign, a), signed skip, merge, child modulus), where merge is the
    shift with the row's g, inv and step, or None when step == 1 and the
    merge is the identity."""
    gate = []
    for a in skips:
        g, step, inv = _step_row(modulus, a)
        for sign, shift in ((1, 0), (-1, a)):
            merge = (shift, g, inv, step) if step > 1 else None
            gate.append((g, shift % g, ((sign, a), sign * a, merge, modulus * step)))
    return tuple(gate)


def _moves(d: int, gate: tuple[tuple, ...]) -> tuple[tuple, ...]:
    """The moves of ``gate`` that merge at a term w with gcd(w, modulus) =
    d: those with w = r (mod g).  As g divides 2a, r is 0 or g/2; as g
    divides the modulus, g divides w iff it divides d, and so does g/2,
    so w = r (mod g) iff d = r (mod g)."""
    return tuple([move for g, r, move in gate if d % g == r])


@functools.lru_cache(maxsize=1)
def _tables(skips: tuple[int, ...]) -> tuple:
    """The gate cache and the (modulus, d) move tables of a skip set: per
    modulus one gate (so one step row per skip), and per modulus and d its
    moves.  Only the last skip set's are kept.  Every entry is a pure
    function of its key, so two searches in different threads read at
    worst an entry the other has just filled, never a wrong one."""
    gate = functools.cache(lambda modulus: _gate(modulus, skips))
    return gate, collections.defaultdict(dict)


def _search(skips: Iterable[int], max_len: int, cycles: bool) -> tuple[SearchResult | None, bool]:
    """The search's result, or None when no candidate is found, beside
    its flag: True when a prune that depends on the cap fired."""
    skip_list = sorted_skips(skips)
    if max_len < 1:
        raise ValueError(f"max_len must be positive, got {max_len}")
    max_skip = skip_list[-1]

    best: tuple | None = None
    best_len = 0
    truncated = False
    steps: list[tuple[int, int]] = []
    seen = {0}
    gate, tables = _tables(skip_list)
    gcd = math.gcd

    def consider(length: int, start: int, closing: tuple[int, int] | None) -> None:
        # called only when length >= best_len, so only the tie-break is left
        nonlocal best, best_len
        all_steps = steps + [closing] if closing else steps
        key = (-length, start, *_walk_order(all_steps))
        if best is None or key < best:
            best = key + (tuple(all_steps),)
            best_len = length

    def node(base: int, residue: int, modulus: int, depth: int) -> None:
        nonlocal truncated
        if depth == max_len:
            truncated = True
            return
        term = residue + base
        d = gcd(term, modulus)
        out = tables[modulus].get(d)
        if out is None:
            out = tables[modulus][d] = _moves(d, gate(modulus))
        reach = (max_len - depth - 1) * max_skip
        for move, delta, merge, child in out:
            # No window rule runs here.  Every node is a strictly
            # realizable prefix (one merge, no repeated term or arc), and
            # the rules are necessary conditions for that.  On the step
            # that closes a cycle, a window narrower than the cycle is a
            # proper subpath; ODD-BLOCKS counts parities, so it holds on
            # closed walks too.  The windows as wide as an odd cycle are
            # ABA-div on three steps, which no zero-sum [a b a] fires (it
            # needs b = 2a), and BACABAC on seven, which shapes no valid
            # cycle (all 17 540 zero-sum signings with distinct skips up
            # to 30 fail valid_odd_cycle).
            new_sum = base + delta
            merged = residue
            if merge:
                shift, g, inv, step = merge
                merged += modulus * ((shift - term) // g * inv % step)
            if new_sum in seen:
                # ``seen`` keeps every term fresh, so no arc repeats: the
                # closing arc {base, 0} could only retrace the first arc,
                # and that needs depth 1.
                if cycles and new_sum == 0 and depth >= 2 and depth % 2 == 0 and depth + 1 >= best_len:
                    consider(depth + 1, merged, move)
                continue
            if cycles:
                if new_sum < 0:
                    continue  # rotations from the minimum vertex suffice
                if new_sum > reach:
                    truncated = True  # the one cycle prune that depends on the cap
                    continue
            steps.append(move)
            seen.add(new_sum)
            if not cycles and depth + 1 >= best_len:
                consider(depth + 1, merged, None)
            node(new_sum, merged, child, depth + 1)
            seen.discard(new_sum)
            steps.pop()

    node(0, 0, 1, 0)
    if best is None:
        return None, truncated
    neg_len, start, _, _, found = best
    sp = SignedPattern(found)
    if cycles:
        verdict = valid_odd_cycle(sp)
        kind, valid = "odd-cycle", verdict.valid
    else:
        verdict = strict_realizability(sp)
        kind, valid = "path", verdict.status == REALIZABLE
    if not valid or verdict.witness_start != start:
        raise RuntimeError(f"search produced an invalid {'cycle' if cycles else 'path'}: {sp.steps}")
    return SearchResult(kind, -neg_len, start, sp.unsigned(), sp, truncated), truncated


def longest_path(skips: Iterable[int], max_len: int = 64) -> SearchResult:
    """Longest realizable path over the skip set, up to ``max_len``.

    When the depth cap cuts off unexplored branches the result is flagged
    as a lower bound.
    """
    result = _search(skips, max_len, cycles=False)[0]
    assert result is not None  # every single skip realizes as a path
    return result


def longest_odd_cycle(skips: Iterable[int], max_len: int = 64) -> SearchResult | None:
    """Longest odd cycle over the skip set, or None when none exists
    within the depth cap."""
    return _search(skips, max_len, cycles=True)[0]
