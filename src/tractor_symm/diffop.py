"""Constant-metric differential operators, each held as its full symbol.

An operator sum_alpha c_alpha(x) d^alpha is held as its full symbol
sum_alpha c_alpha(x) xi^alpha, one Poly in the 2n variables (x, xi)
(``tensor``); the operator sends the plane wave e^{xi.x} to its symbol
times e^{xi.x}.  Operators add, compare and test zero on their symbols,
compose by the symbol product a#b (``compose_raw``) and act by
sum_alpha c_alpha d^alpha f.  The standard form

    sum of phi^{a_1..a_p} nabla_{a_1} .. nabla_{a_p} Delta^r

with phi symmetric trace-free is a read-only view of the symbol
(``StdOp.terms``).  The type of a term is <p|r>, its order p + 2r and its
level p + r; types are compared by (level, order).  A term is kept as
sigma(phi) with the indices of phi raised, a harmonic symbol of xi-degree
p, and its symbol is Q^r sigma(phi).  The view splits each xi-degree part
of the symbol into its harmonic parts (``tensor.harmonic_parts``), the
Fischer decomposition.  A SymTensor is its lower-index symbol, so
``from_coeff`` and reading a term back as a SymTensor only raise or
lower its indices (``tensor.xi_raise``); components are read only for
serialization.
"""

from operator import lshift
from types import MappingProxyType

from .scalars import qparse
from .poly import Poly
from .tensor import (Metric, SymTensor, xi_raise, xi_quadric, harmonic_parts,
                     comps_to_json)


class OpType(tuple):
    """Term type <p|r>: p free gradients and r Laplacians."""

    def __new__(cls, p, r):
        if p < 0 or r < 0:
            raise ValueError(f"type <{p}|{r}> needs p >= 0 and r >= 0")
        return super().__new__(cls, (p, r))

    @property
    def p(self):
        return self[0]

    @property
    def r(self):
        return self[1]

    @property
    def order(self):
        return self[0] + 2 * self[1]

    @property
    def level(self):
        return self[0] + self[1]

    def sort_key(self):
        return (self.level, self.order)

    def __repr__(self):
        return f"<{self[0]}|{self[1]}>"


class StdOp:
    """Differential operator, held as its full symbol.

    ``sym`` is sum_alpha c_alpha(x) xi^alpha, one Poly in (x, xi).  The
    standard form is a read-only view of it (``terms``).
    """

    def __init__(self, metric, terms=None):
        """The operator sum of Q^r P over ``terms``, a dict from types
        <p|r> to raised symbols P of its terms."""
        self.metric = metric
        sym = Poly.zero(2 * metric.n)
        for t, P in (terms or {}).items():
            for _ in range(OpType(*t).r):
                P = xi_quadric(P, metric)
            sym = sym + P
        self.sym = sym

    @classmethod
    def wrap(cls, metric, sym):
        """The operator whose symbol is ``sym``, not copied."""
        op = cls.__new__(cls)
        op.metric, op.sym = metric, sym
        return op

    @classmethod
    def zero(cls, metric):
        return cls(metric)

    @classmethod
    def identity(cls, metric):
        return cls.laplacian_power(metric, 0)

    @classmethod
    def laplacian_power(cls, metric, k):
        return cls(metric, {OpType(0, k): Poly.const(2 * metric.n, 1)})

    @classmethod
    def from_coeff(cls, coeff, r=0):
        """The operator phi . nabla^p Delta^r for a SymTensor phi of rank
        p.  phi need not be trace-free: its trace parts show in ``terms``
        as terms with more Laplacians."""
        metric = coeff.metric
        return cls(metric, {OpType(coeff.rank, r):
                            xi_raise(coeff.sym, metric)})

    @property
    def terms(self):
        """Read-only standard form {<p|r>: sigma(phi) with raised
        indices}, without zero terms.  Orders do not mix: the part of
        xi-degree o is Q^q h_q summed over its harmonic parts h_q, and
        h_q is the term <o-2q|q>."""
        out = {}
        for o, part in sorted(by_xi_degree(self.sym, self.metric.n).items()):
            for q, P in enumerate(harmonic_parts(part, self.metric, o)):
                # <o-2q|q> has order o: no two parts share a type
                if not P.is_zero():
                    out[OpType(o - 2 * q, q)] = P
        return MappingProxyType(out)

    def is_zero(self):
        return self.sym.is_zero()

    def _check(self, other):
        if self.metric != other.metric:
            raise ValueError(f"operators on {self.metric} and {other.metric}")

    def __add__(self, other):
        self._check(other)
        return StdOp.wrap(self.metric, self.sym + other.sym)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return StdOp.wrap(self.metric, self.sym.scale(c))

    def __eq__(self, other):
        if not isinstance(other, StdOp):
            return NotImplemented
        return self.metric == other.metric and self.sym == other.sym

    def apply(self, f):
        """sum_alpha c_alpha d^alpha f on a Poly f in x; each d^alpha f is
        taken once."""
        n, sym = f.nvars, self.sym
        if sym.nvars != 2 * n:
            raise ValueError(f"symbol in {sym.nvars} variables on a Poly "
                             f"in {n}")
        by_alpha = {}
        for e, c in sym.nums.items():
            by_alpha.setdefault(e[n:], {})[e[:n]] = c
        out = Poly.zero(n)
        for alpha, nums in by_alpha.items():
            df = f.diff_multi(alpha)
            if not df.is_zero():
                out = out + Poly.wrap(n, nums, sym.den) * df
        return out

    __call__ = apply

    def compose(self, other):
        """self after other."""
        self._check(other)
        return StdOp.wrap(self.metric, compose_raw(self.sym, other.sym))

    # -- serialization -------------------------------------------------

    def to_dict(self):
        terms, met = self.terms, self.metric
        out = [{"p": t.p, "r": t.r, "coeff": comps_to_json(SymTensor.wrap(
                    met, t.p, xi_raise(terms[t], met)).comps)}
               for t in sorted(terms, key=OpType.sort_key, reverse=True)]
        return {"n": met.n, "signature": list(met.key()), "terms": out}

    @classmethod
    def from_dict(cls, data):
        metric = Metric(*data["signature"])
        op = cls(metric)
        for term in data["terms"]:
            comps = {tuple(m): Poly(metric.n, {
                         tuple(e): qparse(c) for e, c in poly_list})
                     for m, poly_list in term["coeff"]}
            op = op + cls.from_coeff(SymTensor(metric, term["p"], comps),
                                     term["r"])
        return op

    def __repr__(self):
        terms = self.terms
        bits = [f"{t!r}:{terms[t]!r}"
                for t in sorted(terms, key=OpType.sort_key, reverse=True)]
        return "StdOp(" + (" + ".join(bits) or "0") + ")"


def compose_raw(a, b, levels=None):
    """Symbol of the composition a after b of two symbols.

    a#b = sum_gamma (d_xi^gamma a)(d_x^gamma b) / gamma!.  gamma is
    walked depth-first, raising only indices >= the last one raised, so
    every multi-index is reached once, from its parent by one derivative
    of each side: d_xi of (d_xi^gamma a) / gamma!, which carries the
    factorial, and d_x of d_x^gamma b.  A branch ends where either side
    vanishes, so S after Delta^k stops at gamma = 0.

    The walk runs on the integer numerators of a and b.  d_xi^gamma /
    gamma! sends x^b xi^e to prod_i C(e_i, gamma_i) x^b xi^(e - gamma),
    so it keeps integer numerators integral and each step's 1/m is an
    exact ``// m``.  An exponent tuple is packed into one int, w bits an
    entry with 2^w above every exponent of a#b, so the exponent of a
    product is one addition.  Products are summed in place into one dict
    of integers, over the denominator a.den * b.den.  ``levels``, a
    range of |gamma|, keeps only the products at those levels and
    descends no further than its top; the default walks every level.
    """
    if a.nvars != b.nvars:
        raise ValueError(f"symbols in {a.nvars} and {b.nvars} variables")
    n = a.nvars // 2
    w = (a.degree() + b.degree() + 1).bit_length()
    mask = (1 << w) - 1
    shifts = range(0, 2 * n * w, w)
    if levels is None:
        levels = range(a.degree() + 1)
    top = levels[-1] if levels else 0
    out = {}

    def walk(da, db, last, g, depth):
        # da = d_xi^gamma a / gamma!, db = d_x^gamma b; g = gamma[last]
        if depth in levels:
            for e1, c1 in da.items():
                for e2, c2 in db.items():
                    e = e1 + e2
                    s = out.get(e)
                    if s is None:
                        out[e] = c1 * c2
                        continue
                    s += c1 * c2
                    if s:
                        out[e] = s
                    else:
                        del out[e]
        if depth == top:
            return
        for i in range(last, n):
            m = g + 1 if i == last else 1
            db2 = _diff(db, shifts[i], mask, 1)
            if not db2:
                continue
            da2 = _diff(da, shifts[n + i], mask, m)
            if da2:
                walk(da2, db2, i, m, depth + 1)

    walk({sum(map(lshift, e, shifts)): c for e, c in a.nums.items()},
         {sum(map(lshift, e, shifts)): c for e, c in b.nums.items()}, 0, 0, 0)
    del walk  # its cell refers to walk: without this, out lives until gc
    return Poly.wrap(a.nvars, {tuple(e >> s & mask for s in shifts): c
                               for e, c in out.items()}, a.den * b.den)


def _diff(nums, s, mask, m):
    """d/dx of packed integer numerators in the entry at bit s, divided
    by m, which must divide every coefficient of the result."""
    one = 1 << s
    out = {}
    for e, c in nums.items():
        k = e >> s & mask
        if k:
            out[e - one] = c * k // m
    return out


def by_xi_degree(sym, n):
    """A symbol's parts, as Polys keyed by their degree in xi."""
    out = {}
    for e, c in sym.nums.items():
        out.setdefault(sum(e[n:]), {})[e] = c
    return {o: Poly.wrap(sym.nvars, nums, sym.den) for o, nums in out.items()}
