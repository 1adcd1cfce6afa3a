"""Exact rational scalars.

All arithmetic in the package is exact, in one scalar type:
``Q = fractions.Fraction``.  It prints reduced rationals as "-4/3" or
"7", which the serialization layer relies on.
"""

from fractions import Fraction as Q
from math import comb

ZERO = Q(0)
ONE = Q(1)


def qstr(x) -> str:
    """Reduced decimal string, 'p/q' or 'p' for integers."""
    return str(Q(x))


def qparse(s: str):
    return Q(s)


def binom(m: int, j: int):
    """Binomial coefficient as an exact scalar; zero outside the triangle."""
    if j < 0 or m < 0 or j > m:
        return ZERO
    return Q(comb(m, j))


__all__ = ["Q", "ZERO", "ONE", "qstr", "qparse", "binom"]
