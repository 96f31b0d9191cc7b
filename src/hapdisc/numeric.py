"""Exact integer utilities: 2-adic valuation classes and a congruence
solver that tolerates pairwise non-coprime moduli.

Everything here works on Python's arbitrary-precision integers; callers
may feed values of any size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


def two_adic_valuation(n: int) -> int:
    """Return v such that 2**v divides n but 2**(v+1) does not (n >= 1)."""
    if n < 1:
        raise ValueError(f"two_adic_valuation is defined for n >= 1, got {n}")
    return (n & -n).bit_length() - 1


@dataclass(frozen=True)
class Congruence:
    """x == residue (mod modulus), normalized so 0 <= residue < modulus."""

    residue: int
    modulus: int

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError(f"modulus must be positive, got {self.modulus}")
        object.__setattr__(self, "residue", self.residue % self.modulus)

    def satisfied_by(self, x: int) -> bool:
        return x % self.modulus == self.residue


def crt_merge(a: Congruence, b: Congruence) -> Congruence | None:
    """Intersect two congruences, or None when they are incompatible.

    Compatibility requires gcd(m_a, m_b) to divide the residue difference;
    the merged congruence lives modulo lcm(m_a, m_b).
    """
    g = math.gcd(a.modulus, b.modulus)
    if (b.residue - a.residue) % g:
        return None
    lcm = a.modulus // g * b.modulus
    step = b.modulus // g
    k = (b.residue - a.residue) // g * pow(a.modulus // g, -1, step) % step
    return Congruence(a.residue + a.modulus * k, lcm)


def crt_solve(congruences: Sequence[Congruence]) -> Congruence | None:
    """Solve a simultaneous system of congruences by left-to-right merging.

    Returns the combined congruence modulo the lcm of all moduli (its
    residue is the least nonnegative solution), or None when some pair is
    incompatible.  Unsolvability is a legitimate outcome for callers, not
    an error.
    """
    if not congruences:
        raise ValueError("crt_solve requires at least one congruence")
    acc = congruences[0]
    for c in congruences[1:]:
        merged = crt_merge(acc, c)
        if merged is None:
            return None
        acc = merged
    return acc
