"""Exact rational scalars.

All arithmetic in the package is exact.  We use gmpy2.mpq when available
(it is much faster than fractions.Fraction) and fall back to Fraction
otherwise.  Both types print reduced rationals the same way ("-4/3", "7"),
which the serialization layer relies on.
"""

from fractions import Fraction
from math import comb

try:
    from gmpy2 import mpq as Q
except ImportError:  # pragma: no cover
    Q = Fraction

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


__all__ = ["Q", "ZERO", "ONE", "qstr", "qparse", "binom", "Fraction"]
