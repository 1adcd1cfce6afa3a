"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial in ``nvars`` variables x1..xn is integer numerators ``nums``
(exponent tuple -> nonzero int) over one positive ``den`` coprime to them
all.  The form is canonical: ``==`` and ``hash`` compare it, and the
arithmetic and the symbol kernels work on it.  ``terms`` computes the
{exponent: Fraction} dict.  Only ring arithmetic and partial derivatives,
which the operator calculus needs, are provided.
"""

from math import gcd, lcm

from .scalars import Q, qstr


class Poly:
    __slots__ = ("nvars", "nums", "den")

    def __init__(self, nvars, terms=None):
        """The Poly with coefficients ``terms``, a dict from exponent
        tuples to rationals or ints; zero coefficients are dropped."""
        cs = {tuple(e): Q(c) for e, c in (terms or {}).items()}
        den = lcm(*(c.denominator for c in cs.values()))
        self.nvars = nvars
        self.nums = {e: c.numerator * (den // c.denominator)
                     for e, c in cs.items() if c}
        self.den = den

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, nvars):
        return cls.wrap(nvars, {})

    @classmethod
    def const(cls, nvars, c):
        return cls.monomial(nvars, (0,) * nvars, c)

    @classmethod
    def monomial(cls, nvars, exps, c=1):
        c = Q(c)
        return cls.wrap(nvars, {tuple(exps): c.numerator} if c else {},
                        c.denominator)

    @classmethod
    def wrap(cls, nvars, nums, den=1):
        """The Poly nums / den, from nonzero integer numerators ``nums``
        (taken, not copied) and a positive denominator; a common factor
        of den and the numerators is cancelled."""
        if den > 1 and (g := gcd(den, *nums.values())) > 1:
            for e in nums:
                nums[e] //= g
            den //= g
        p = cls.__new__(cls)
        p.nvars, p.nums, p.den = nvars, nums, den
        return p

    @classmethod
    def var(cls, nvars, i):
        """The coordinate function x_{i+1}."""
        e = [0] * nvars
        e[i] = 1
        return cls.monomial(nvars, e)

    @property
    def terms(self):
        """A new dict {exponent: Fraction} of the coefficients."""
        den = self.den
        return {e: Q(c, den) for e, c in self.nums.items()}

    # -- predicates -----------------------------------------------------

    def is_zero(self):
        return not self.nums

    def is_constant(self):
        return all(sum(e) == 0 for e in self.nums)

    def constant_value(self):
        return self.coeff((0,) * self.nvars)

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.nums), default=-1)

    # -- arithmetic -----------------------------------------------------

    def _check(self, other):
        if other.nvars != self.nvars:
            raise ValueError(f"Polys in {self.nvars}, {other.nvars} variables")

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(self.nvars, other)
        self._check(other)
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        out = ({e: c * fa for e, c in self.nums.items()} if fa > 1
               else dict(self.nums))
        for e, c in other.nums.items():
            c *= fb
            s = out.get(e)
            if s is None:
                out[e] = c
                continue
            s += c
            if s:
                out[e] = s
            else:
                del out[e]
        return Poly.wrap(self.nvars, out, den)

    __radd__ = __add__

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        self._check(other)
        out = {}
        for e1, c1 in self.nums.items():
            for e2, c2 in other.nums.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                if e not in out:
                    out[e] = c1 * c2
                    continue
                s = out[e] + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        return Poly.wrap(self.nvars, out, self.den * other.den)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        """c times the Poly, for a rational or int c."""
        a = c.numerator
        if not a:
            return Poly.zero(self.nvars)
        return Poly.wrap(self.nvars, {e: x * a for e, x in self.nums.items()},
                         self.den * c.denominator)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"power {k!r} is not a non-negative integer")
        out = Poly.const(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return self.is_constant() and self.constant_value() == Q(other)
        return (self.nvars == other.nvars and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self):
        return hash((self.nvars, self.den, frozenset(self.nums.items())))

    # -- calculus -------------------------------------------------------

    def diff(self, i):
        """Partial derivative with respect to x_{i+1}."""
        out = {}
        for e, c in self.nums.items():
            if e[i]:
                e2 = list(e)
                e2[i] -= 1
                out[tuple(e2)] = c * e[i]
        return Poly.wrap(self.nvars, out, self.den)

    def diff_multi(self, alpha):
        p = self
        for i, k in enumerate(alpha):
            for _ in range(k):
                p = p.diff(i)
                if p.is_zero():
                    return p
        return p

    def coeff(self, exps):
        return Q(self.nums.get(tuple(exps), 0), self.den)

    # -- display --------------------------------------------------------

    def __str__(self):
        terms = self.terms
        if not terms:
            return "0"
        bits = []
        for e in sorted(terms, key=lambda t: (sum(t), t)):
            c = terms[e]
            mono = "*".join(
                f"x{i + 1}" + (f"^{k}" if k > 1 else "")
                for i, k in enumerate(e) if k
            )
            if mono:
                bits.append(f"{qstr(c)}*{mono}" if c != 1 else mono)
            else:
                bits.append(qstr(c))
        return " + ".join(bits)

    __repr__ = __str__


def monomials_of_degree(nvars, d):
    """All exponent tuples of total degree exactly d, lexicographic."""
    if nvars == 1:
        yield (d,)
        return
    for first in range(d, -1, -1):
        for rest in monomials_of_degree(nvars - 1, d - first):
            yield (first,) + rest


def monomials_up_to_degree(nvars, d):
    for k in range(d + 1):
        yield from monomials_of_degree(nvars, k)
