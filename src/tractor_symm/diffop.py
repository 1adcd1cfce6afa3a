"""Constant-metric differential operators in standard form.

An operator is kept as a sum of terms

    phi^{a_1..a_p} nabla_{a_1} .. nabla_{a_p} Delta^r

with phi symmetric trace-free.  The type of a term is <p|r>, its order
p + 2r and its level p + r; types are compared by (level, order).
The raw form sum_alpha c_alpha(x) d^alpha is kept as its covector symbol
(``tensor``): a dict alpha -> c_alpha.  Normalization converts an
arbitrary polynomial-coefficient derivative expression into standard form
by decomposing the symbol at each total order into trace parts.
"""

from math import factorial

from .scalars import Q, ONE, qstr, qparse
from .poly import Poly, monomials_of_degree, monomials_up_to_degree
from .tensor import (SymTensor, decompose_traces, symbol, from_symbol,
                     xi_add, xi_raise, xi_quadric)


class OpType(tuple):
    """Term type <p|r>: p free gradients and r Laplacians."""

    def __new__(cls, p, r):
        assert p >= 0 and r >= 0
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
    """Differential operator in standard (normal) form."""

    def __init__(self, metric, terms=None):
        self.metric = metric
        # OpType -> SymTensor (trace-free, rank p, lower indices)
        self.terms = {}
        if terms:
            for t, coeff in terms.items():
                t = OpType(*t)
                if not coeff.is_zero():
                    self.terms[t] = coeff

    @classmethod
    def zero(cls, metric):
        return cls(metric)

    @classmethod
    def identity(cls, metric):
        one = SymTensor(metric, 0, {(): 1})
        return cls(metric, {OpType(0, 0): one})

    @classmethod
    def laplacian_power(cls, metric, k):
        if k == 0:
            return cls.identity(metric)
        one = SymTensor(metric, 0, {(): 1})
        return cls(metric, {OpType(0, k): one})

    @classmethod
    def from_coeff(cls, coeff, r=0):
        """Single term phi . nabla^p Delta^r from a trace-free SymTensor."""
        return cls(coeff.metric, {OpType(coeff.rank, r): coeff})

    def is_zero(self):
        return all(c.is_zero() for c in self.terms.values())

    def types(self):
        return sorted(self.terms, key=OpType.sort_key)

    def coeff(self, p, r):
        t = OpType(p, r)
        return self.terms.get(t, SymTensor.zero(self.metric, p))

    def greatest_term(self):
        """Largest type present, by (level, order); None for the zero op."""
        live = [t for t, c in self.terms.items() if not c.is_zero()]
        if not live:
            return None
        return max(live, key=OpType.sort_key)

    def __add__(self, other):
        assert self.metric == other.metric
        out = StdOp(self.metric)
        out.terms = dict(self.terms)
        for t, c in other.terms.items():
            if t in out.terms:
                s = out.terms[t] + c
                if s.is_zero():
                    del out.terms[t]
                else:
                    out.terms[t] = s
            elif not c.is_zero():
                out.terms[t] = c
        return out

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        out = StdOp(self.metric)
        for t, coeff in self.terms.items():
            s = coeff.scale(c)
            if not s.is_zero():
                out.terms[t] = s
        return out

    def __eq__(self, other):
        if not isinstance(other, StdOp):
            return NotImplemented
        types = set(self.terms) | set(other.terms)
        return all(self.coeff(*t) == other.coeff(*t) for t in types)

    def max_order(self):
        return max((t.order for t in self.terms), default=0)

    # -- action on polynomials ---------------------------------------

    def apply(self, f):
        metric = self.metric
        n = metric.n
        out = Poly.zero(n)
        for t, coeff in self.terms.items():
            g = f
            for _ in range(t.r):
                g = laplacian_poly(g, metric)
            if g.is_zero():
                continue
            for alpha, c in xi_raise(symbol(coeff), metric).items():
                dg = g.diff_multi(alpha)
                if not dg.is_zero():
                    out = out + c * dg
        return out

    def __call__(self, f):
        return self.apply(f)

    # -- raw form and composition -------------------------------------

    def to_raw(self):
        """Expand into a dict multi-index alpha -> Poly coefficient.

        This is the symbol: phi nabla^p Delta^r has symbol Q^r sigma(phi)
        with the indices of phi raised.
        """
        metric = self.metric
        raw = {}
        for t, coeff in self.terms.items():
            sym = xi_raise(symbol(coeff), metric)
            for _ in range(t.r):
                sym = xi_quadric(sym, metric)
            for alpha, c in sym.items():
                xi_add(raw, alpha, c)
        return raw

    def compose(self, other):
        """self after other, renormalized to standard form."""
        assert self.metric == other.metric
        raw = compose_raw(self.to_raw(), other.to_raw())
        return normalize_raw(raw, self.metric)

    # -- serialization -------------------------------------------------

    def to_dict(self):
        terms = []
        for t in sorted(self.terms, key=OpType.sort_key, reverse=True):
            coeff = self.terms[t]
            comp_list = []
            for m in sorted(coeff.comps):
                p = coeff.comps[m]
                poly_list = [[list(e), qstr(c)]
                             for e, c in sorted(p.terms.items())]
                comp_list.append([list(m), poly_list])
            terms.append({"p": t.p, "r": t.r, "coeff": comp_list})
        return {"n": self.metric.n, "signature": list(self.metric.signature),
                "terms": terms}

    @classmethod
    def from_dict(cls, data):
        from .tensor import Metric
        metric = Metric(*data["signature"])
        op = cls(metric)
        for term in data["terms"]:
            t = OpType(term["p"], term["r"])
            comps = {}
            for m, poly_list in term["coeff"]:
                comps[tuple(m)] = Poly(metric.n, {
                    tuple(e): qparse(c) for e, c in poly_list})
            coeff = SymTensor(metric, t.p, comps)
            if not coeff.is_zero():
                op.terms[t] = coeff
        return op

    def __repr__(self):
        if not self.terms:
            return "StdOp(0)"
        bits = []
        for t in sorted(self.terms, key=OpType.sort_key, reverse=True):
            bits.append(f"{t!r}:{self.terms[t]!r}")
        return "StdOp(" + " + ".join(bits) + ")"


def compose_raw(r1, r2):
    """Leibniz composition of two raw derivative expressions.

    Both arguments map multi-indices to Poly coefficients; the result is
    the raw form of the first operator applied after the second.
    """
    out = {}
    for alpha, c in r1.items():
        for beta, d in r2.items():
            # d^alpha (d(x) d^beta) over subsets gamma <= alpha
            for gamma in _sub_multi(alpha):
                dg = d.diff_multi(gamma)
                if dg.is_zero():
                    continue
                binm = ONE
                for ai, gi in zip(alpha, gamma):
                    binm *= Q(factorial(ai),
                              factorial(gi) * factorial(ai - gi))
                tgt = tuple(a - g + b for a, g, b in zip(alpha, gamma, beta))
                xi_add(out, tgt, (c * dg).scale(binm))
    return out


def _sub_multi(alpha):
    """All multi-indices gamma <= alpha, componentwise."""
    if not alpha:
        yield ()
        return
    for rest in _sub_multi(alpha[1:]):
        for g in range(alpha[0] + 1):
            yield (g,) + rest


def laplacian_poly(f, metric):
    out = Poly.zero(metric.n)
    for i in range(metric.n):
        out = out + f.diff(i).diff(i).scale(metric.eps[i])
    return out


def normalize_raw(raw, metric):
    """Convert a raw derivative expression to standard form.

    ``raw`` maps multi-indices to Poly coefficients, representing
    sum_alpha c_alpha(x) d^alpha.  Orders do not mix: the order-o part of
    the symbol is decomposed into trace parts, each trace producing one
    Laplacian.
    """
    by_order = {}
    for alpha, c in raw.items():
        if c.is_zero():
            continue
        by_order.setdefault(sum(alpha), {})[alpha] = c
    op = StdOp(metric)
    for o, part in sorted(by_order.items()):
        # the order-o symbol, lowered, is sigma of a rank-o tensor
        parts = decompose_traces(
            from_symbol(xi_raise(part, metric), metric, o))
        for q, u in enumerate(parts):
            if u.is_zero():
                continue
            t = OpType(o - 2 * q, q)
            if t in op.terms:
                s = op.terms[t] + u
                if s.is_zero():
                    del op.terms[t]
                else:
                    op.terms[t] = s
            else:
                op.terms[t] = u
    return op


def reconstruct(action, metric, max_order, nvars=None):
    """Recover the StdOp of an operator given only its action on polynomials.

    ``action`` maps Poly -> Poly and must be a differential operator of
    order at most ``max_order`` with polynomial coefficients.  The raw
    coefficients are solved degree by degree from the action on
    monomials; two extra degrees are checked to detect an order
    violation (raises ValueError).
    """
    n = nvars if nvars is not None else metric.n
    raw = {}
    for beta in monomials_up_to_degree(n, max_order):
        xb = Poly.monomial(n, beta)
        img = action(xb)
        acc = Poly.zero(n)
        fb = 1
        for bi in beta:
            fb *= factorial(bi)
        for alpha, c in raw.items():
            if any(a > b for a, b in zip(alpha, beta)):
                continue
            mult = ONE
            e = []
            for ai, bi in zip(alpha, beta):
                mult *= Q(factorial(bi), factorial(bi - ai))
                e.append(bi - ai)
            acc = acc + (c * Poly.monomial(n, e)).scale(mult)
        diff = img - acc
        if not diff.is_zero():
            raw[beta] = diff.scale(Q(1, fb))
    # consistency check on two extra degrees
    for d in (max_order + 1, max_order + 2):
        for beta in monomials_of_degree(n, d):
            xb = Poly.monomial(n, beta)
            img = action(xb)
            acc = Poly.zero(n)
            for alpha, c in raw.items():
                if any(a > b for a, b in zip(alpha, beta)):
                    continue
                mult = ONE
                e = []
                for ai, bi in zip(alpha, beta):
                    mult *= Q(factorial(bi), factorial(bi - ai))
                    e.append(bi - ai)
                acc = acc + (c * Poly.monomial(n, e)).scale(mult)
            if acc != img:
                raise ValueError(
                    "action is not an order-%d operator" % max_order)
    return normalize_raw(raw, metric)
