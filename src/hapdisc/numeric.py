"""Exact integer utilities: the 2-adic valuation that sorts skips into
the classes of the parity condition.

Everything here works on Python's arbitrary-precision integers; callers
may feed values of any size.
"""

from __future__ import annotations


def two_adic_valuation(n: int) -> int:
    """Return v such that 2**v divides n but 2**(v+1) does not (n >= 1)."""
    if n < 1:
        raise ValueError(f"two_adic_valuation is defined for n >= 1, got {n}")
    return (n & -n).bit_length() - 1
