"""Bracket-notation skip patterns.

A pattern such as ``[2 1 3]`` records consecutive skip sizes along a walk
in the skip graph; a signed pattern such as ``[+2 +1 -3]`` also fixes the
direction of each step.  Signed patterns can be realized from a start
term, producing the sequence of visited terms: a ``+a`` step must leave
from an even multiple of ``a`` (the left end of an a-arc) and a ``-a``
step from an odd multiple (the right end).
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence, Union


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
    """A skip set as sorted distinct values; it must be nonempty and
    every skip at least 1."""
    ss = tuple(sorted(set(values)))
    if not ss:
        raise ValueError("skip set must be nonempty")
    if ss[0] < 1:
        raise ValueError(f"skips must be positive, got {ss}")
    return ss


@dataclass(frozen=True)
class Pattern:
    """An unsigned sequence of skip sizes."""

    skips: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.skips:
            raise ValueError("pattern must contain at least one skip")
        if any(s < 1 for s in self.skips):
            raise ValueError(f"skips must be positive, got {self.skips}")

    def __len__(self) -> int:
        return len(self.skips)


@dataclass(frozen=True)
class SignedPattern:
    """A sequence of (sign, skip) steps with sign in {+1, -1}."""

    steps: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("pattern must contain at least one step")
        for sign, skip in self.steps:
            if sign not in (1, -1):
                raise ValueError(f"sign must be +1 or -1, got {sign}")
            if skip < 1:
                raise ValueError(f"skips must be positive, got {skip}")

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


def infer_signs(p: Pattern, start: int) -> SignedPattern:
    """Assign directions by walking from ``start``.

    Each step goes up when the current term is an even multiple of the
    next skip and down when it is an odd multiple; any term that is not a
    multiple of the next skip is an error.
    """
    if start < 0:
        raise ValueError(f"start term must be nonnegative, got {start}")
    t = start
    steps = []
    for k, skip in enumerate(p.skips):
        q, rem = divmod(t, skip)
        if rem:
            raise SignInferenceError(k, t, skip)
        sign = 1 if q % 2 == 0 else -1
        steps.append((sign, skip))
        t += sign * skip
    return SignedPattern(tuple(steps))


@dataclass(frozen=True)
class Realization:
    """A signed pattern walked from a concrete start term.

    ``terms[k]`` is the value before step k.  ``parity_violations`` lists
    steps leaving from the wrong multiple (odd where an even multiple is
    required, or vice versa, or from a non-multiple entirely).
    """

    pattern: SignedPattern
    start: int
    terms: tuple[int, ...]
    parity_violations: tuple[int, ...]

    @property
    def is_closed(self) -> bool:
        return self.terms[0] == self.terms[-1]

    def repeated_terms(self, as_cycle: bool = False) -> tuple[int, ...]:
        """Term values visited more than once.

        With ``as_cycle`` a closed walk's final return to the start term is
        not a repeat (a cycle of k skips has k terms, not k+1).
        """
        terms = self.terms
        if as_cycle and self.is_closed:
            terms = terms[:-1]
        counts = Counter(terms)
        return tuple(sorted(t for t, c in counts.items() if c > 1))

    def is_strict(self) -> bool:
        """True when the walk is parity-valid and repeats no term or arc.

        Checking terms suffices: arcs join consecutive terms, so distinct
        terms give distinct arcs.  Nor can a parity-valid walk go
        negative: it starts at 0 or above, and a valid down step leaves
        an odd multiple (2q+1)a >= a, landing at 0 or above.
        """
        return not self.parity_violations and not self.repeated_terms()


def realize(sp: SignedPattern, start: int) -> Realization:
    """Walk ``sp`` from ``start``, recording terms and any violations."""
    if start < 0:
        raise ValueError(f"start term must be nonnegative, got {start}")
    t = start
    terms = [t]
    violations = []
    for k, (sign, skip) in enumerate(sp.steps):
        want = 0 if sign > 0 else skip
        if t < 0 or t % (2 * skip) != want:
            violations.append(k)
        t += sign * skip
        terms.append(t)
    return Realization(sp, start, tuple(terms), tuple(violations))
