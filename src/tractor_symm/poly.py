"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial in ``nvars`` variables x1..xn is a dict mapping exponent
tuples to nonzero scalars.  Only the handful of operations the operator
calculus needs are provided: ring arithmetic and partial derivatives.
"""

from .scalars import Q, ZERO, qstr


class Poly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for e, c in terms.items():
                c = Q(c)
                if c:
                    self.terms[tuple(e)] = c

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def const(cls, nvars, c):
        p = cls(nvars)
        c = Q(c)
        if c:
            p.terms[(0,) * nvars] = c
        return p

    @classmethod
    def monomial(cls, nvars, exps, c=1):
        p = cls(nvars)
        c = Q(c)
        if c:
            p.terms[tuple(exps)] = c
        return p

    @classmethod
    def var(cls, nvars, i):
        """The coordinate function x_{i+1}."""
        e = [0] * nvars
        e[i] = 1
        return cls.monomial(nvars, e)

    # -- predicates -----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self):
        return self.terms.get((0,) * self.nvars, ZERO)

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(self.nvars, other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, ZERO) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        p = Poly(self.nvars)
        p.terms = out
        return p

    __radd__ = __add__

    def __neg__(self):
        p = Poly(self.nvars)
        p.terms = {e: -c for e, c in self.terms.items()}
        return p

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, ZERO) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        p = Poly(self.nvars)
        p.terms = out
        return p

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        c = Q(c)
        p = Poly(self.nvars)
        if c:
            p.terms = {e: cc * c for e, cc in self.terms.items()}
        return p

    def __pow__(self, k):
        assert isinstance(k, int) and k >= 0
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
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- calculus -------------------------------------------------------

    def diff(self, i):
        """Partial derivative with respect to x_{i+1}."""
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                e2 = list(e)
                e2[i] -= 1
                out[tuple(e2)] = c * e[i]
        p = Poly(self.nvars)
        p.terms = out
        return p

    def diff_multi(self, alpha):
        p = self
        for i, k in enumerate(alpha):
            for _ in range(k):
                p = p.diff(i)
                if p.is_zero():
                    return p
        return p

    def coeff(self, exps):
        return self.terms.get(tuple(exps), ZERO)

    # -- display --------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, key=lambda t: (sum(t), t)):
            c = self.terms[e]
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
