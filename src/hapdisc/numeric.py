"""Exact integer utilities: 2-adic valuations and the pairwise congruence
merge that tolerates non-coprime moduli.

A congruence x == r (mod m) is the plain pair ``(r, m)``.  Everything here
works on Python's arbitrary-precision integers; callers may feed values of
any size.
"""

from __future__ import annotations

import math


def two_adic_valuation(n: int) -> int:
    """Return v such that 2**v divides n but 2**(v+1) does not (n >= 1)."""
    if n < 1:
        raise ValueError(f"two_adic_valuation is defined for n >= 1, got {n}")
    return (n & -n).bit_length() - 1


def crt_merge(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int] | None:
    """Intersect two congruences ``(residue, modulus)``, or None when they
    are incompatible.

    Compatibility requires gcd(m_a, m_b) to divide the residue difference;
    the merged congruence lives modulo lcm(m_a, m_b), with its residue the
    least nonnegative solution whatever integer residues come in.  A
    modulus below 1 raises ValueError.
    """
    (ra, ma), (rb, mb) = a, b
    if ma < 1 or mb < 1:
        raise ValueError(f"modulus must be positive, got {ma} and {mb}")
    g = math.gcd(ma, mb)
    if (rb - ra) % g:
        return None
    lcm = ma // g * mb
    step = mb // g
    k = (rb - ra) // g * pow(ma // g, -1, step) % step
    return (ra + ma * k) % lcm, lcm
