"""Bracket-notation skip patterns.

A pattern such as ``[2 1 3]`` records consecutive skip sizes along a walk
in the skip graph; a signed pattern such as ``[+2 +1 -3]`` also fixes the
direction of each step.  Either kind can be realized from a start term,
producing the sequence of visited terms: a ``+a`` step must leave from an
even multiple of ``a`` (the left end of an a-arc) and a ``-a`` step from
an odd multiple (the right end), which also signs an unsigned step.
"""

from __future__ import annotations

import operator
import re
from typing import Iterable, NamedTuple, Sequence, Union


class PatternSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class SignInferenceError(ValueError):
    def __init__(self, index: int, term: int, skip: int):
        super().__init__(
            f"term {term} is not a multiple of skip {skip} (step {index})"
        )
        self.index = index


# The largest period 2*lcm(S) whose block ``skipgraph.build_graph`` builds
# unless the caller raises it; the CLI's --max-period defaults to it.
DEFAULT_PERIOD_CAP = 1 << 24


def sorted_skips(values: Iterable[int]) -> tuple[int, ...]:
    """A skip set as sorted distinct Python ints; it must be nonempty and
    every skip at least 1.  Integer-like values (numpy integers) are
    converted, anything else raises TypeError."""
    ss = tuple(sorted(set(map(operator.index, values))))
    if not ss:
        raise ValueError("skip set must be nonempty")
    if ss[0] < 1:
        raise ValueError(f"skips must be positive, got {ss}")
    return ss


# The records are named tuples, which import faster than dataclasses.  A
# NamedTuple body may not define ``__new__``, so each pattern type checks its
# steps in the ``__new__`` of a subclass of its field-only base.  Its
# ``__len__`` counts steps, not fields, and the named tuple's ``_make`` and
# ``_replace`` skip ``__new__`` and check the field count with ``len``: they
# fail on any pattern but a one-step one, so neither is used on these types.
class _PatternFields(NamedTuple):
    skips: tuple[int, ...]


class Pattern(_PatternFields):
    """An unsigned sequence of skip sizes."""

    __slots__ = ()

    def __new__(cls, skips: tuple[int, ...]) -> Pattern:
        if not skips:
            raise ValueError("pattern must contain at least one skip")
        if any(s < 1 for s in skips):
            raise ValueError(f"skips must be positive, got {skips}")
        return super().__new__(cls, skips)

    def __len__(self) -> int:
        return len(self.skips)


class _SignedPatternFields(NamedTuple):
    steps: tuple[tuple[int, int], ...]


class SignedPattern(_SignedPatternFields):
    """A sequence of (sign, skip) steps with sign in {+1, -1}."""

    __slots__ = ()

    def __new__(cls, steps: tuple[tuple[int, int], ...]) -> SignedPattern:
        if not steps:
            raise ValueError("pattern must contain at least one step")
        for sign, skip in steps:
            if sign not in (1, -1):
                raise ValueError(f"sign must be +1 or -1, got {sign}")
            if skip < 1:
                raise ValueError(f"skips must be positive, got {skip}")
        return super().__new__(cls, steps)

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def skips(self) -> tuple[int, ...]:
        return tuple(skip for _, skip in self.steps)

    @property
    def signs(self) -> tuple[int, ...]:
        return tuple(sign for sign, _ in self.steps)

    @property
    def signed_sum(self) -> int:
        return sum(sign * skip for sign, skip in self.steps)

    def unsigned(self) -> Pattern:
        return Pattern(self.skips)


def _walk_order(steps: Sequence[tuple[int, int]]) -> tuple[tuple[bool, ...], tuple[int, ...]]:
    """Sort key of the walk order, signs with + before -, then skips: the
    tie-break of the block solver's odd cycles and the search's rows."""
    return tuple(sign < 0 for sign, _ in steps), tuple(skip for _, skip in steps)


AnyPattern = Union[Pattern, SignedPattern]

_TOKEN = re.compile(r"\s*([+-]?)\s*(\d+)")


def parse_pattern(text: str) -> AnyPattern:
    """Parse bracket notation into a Pattern or SignedPattern.

    Steps are either all signed or all unsigned; mixing is an error.
    Signed steps may be juxtaposed without whitespace ("[+18+9-3]").
    """
    s = text.strip().replace("−", "-")
    if not (s.startswith("[") and s.endswith("]")):
        raise PatternSyntaxError("pattern must be enclosed in brackets", 0)
    body = s[1:-1]
    tokens: list[tuple[str, int]] = []
    pos = 0
    while True:
        m = _TOKEN.match(body, pos)
        if m is None:
            if body[pos:].strip():
                raise PatternSyntaxError(
                    f"unexpected text {body[pos:].strip()!r}", pos + 1
                )
            break
        sign, digits = m.group(1), m.group(2)
        skip = int(digits)
        if skip == 0:
            raise PatternSyntaxError("skip sizes must be positive", m.start(2) + 1)
        tokens.append((sign, skip))
        pos = m.end()
    if not tokens:
        raise PatternSyntaxError("pattern must contain at least one skip", 1)
    n_signed = sum(1 for sign, _ in tokens if sign)
    if n_signed == 0:
        return Pattern(tuple(skip for _, skip in tokens))
    if n_signed != len(tokens):
        raise PatternSyntaxError("signs must be given on all steps or none", 1)
    return SignedPattern(tuple((1 if sign == "+" else -1, skip) for sign, skip in tokens))


def format_pattern(p: AnyPattern) -> str:
    """Canonical text form: signs attached, single spaces between steps."""
    if isinstance(p, SignedPattern):
        return "[" + " ".join(f"{'+' if sign > 0 else '-'}{skip}" for sign, skip in p.steps) + "]"
    return "[" + " ".join(str(skip) for skip in p.skips) + "]"


def _step_sign(t: int, a: int) -> int:
    """The sign of the a-step that leaves term t: +1 at an even multiple
    of a, -1 at an odd multiple, 0 when t is no multiple of a."""
    r = t % (2 * a)
    return 1 if r == 0 else -1 if r == a else 0


class Realization(NamedTuple):
    """A signed pattern walked from a concrete start term: a record for
    output, which the ``realize`` verb and the certificates' JSON read.

    ``terms[k]`` is the value before step k.  ``parity_violations`` lists
    steps leaving from the wrong multiple (odd where an even multiple is
    required, or vice versa, or from a non-multiple entirely).
    """

    pattern: SignedPattern
    start: int
    terms: tuple[int, ...]
    parity_violations: tuple[int, ...]


def realize(p: AnyPattern, start: int) -> Realization:
    """Walk ``p`` from ``start``, recording terms and any violations.

    An unsigned step takes the sign ``_step_sign`` gives at its term, and
    a term that is no multiple of its skip raises ``SignInferenceError``.
    A signed step keeps its own sign, and a step whose sign differs from
    that rule's, or that leaves a negative term, is a parity violation.
    """
    if start < 0:
        raise ValueError(f"start term must be nonnegative, got {start}")
    # an unsigned step offers sign 0 and is rewritten with the sign it takes
    signed = isinstance(p, SignedPattern)
    steps = p.steps if signed else [(0, skip) for skip in p.skips]
    t = start
    terms = [t]
    violations = []
    for k, (sign, skip) in enumerate(steps):
        implied = _step_sign(t, skip)
        if not sign:
            if not implied:
                raise SignInferenceError(k, t, skip)
            sign = implied
            steps[k] = (sign, skip)
        elif t < 0 or sign != implied:
            violations.append(k)
        t += sign * skip
        terms.append(t)
    walked = p if signed else SignedPattern(tuple(steps))
    return Realization(walked, start, tuple(terms), tuple(violations))
